module ust/benchmark

go 1.24

require ust v0.0.0

replace ust => ../
