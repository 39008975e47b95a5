package dist

import (
	"context"
	"sync"
	"time"

	"ust/client"
)

// ProberConfig tunes the coordinator's active health prober.
type ProberConfig struct {
	// Interval is the probe period per worker. 0 means 1s.
	Interval time.Duration
	// Timeout bounds each individual probe. 0 means Interval.
	Timeout time.Duration
	// FailThreshold is the number of CONSECUTIVE failed probes before a
	// worker is marked dead (a single lost packet must not shrink the
	// read set). 0 means 2.
	FailThreshold int
	// LiveThreshold is the number of consecutive successful probes
	// before a dead worker is marked live again (no flapping on a
	// worker that answers one probe mid-crash-loop). 0 means 2.
	LiveThreshold int
}

// Prober actively probes each worker's /readyz on a fixed interval and
// keeps a per-worker healthy bit behind consecutive-failure /
// consecutive-success thresholds — the probe state machine:
//
//	LIVE --FailThreshold consecutive failures--> DEAD
//	DEAD --LiveThreshold consecutive successes--> LIVE
//
// Workers start LIVE (the fleet was reachable when configured; a dead
// worker fails its first probes and transitions within
// FailThreshold·Interval). Healthy gates the replicated read path
// (Factory) and Snapshot feeds metrics exposition.
type Prober struct {
	clients []*client.Client
	names   []string
	cfg     ProberConfig

	mu      sync.Mutex
	healthy []bool
	fails   []int
	oks     []int

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewProber builds a prober over the fleet's workers. names label the
// workers in metrics (typically their base URLs); it must align with
// clients.
func NewProber(clients []*client.Client, names []string, cfg ProberConfig) *Prober {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = cfg.Interval
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 2
	}
	if cfg.LiveThreshold <= 0 {
		cfg.LiveThreshold = 2
	}
	p := &Prober{
		clients: clients,
		names:   names,
		cfg:     cfg,
		healthy: make([]bool, len(clients)),
		fails:   make([]int, len(clients)),
		oks:     make([]int, len(clients)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for i := range p.healthy {
		p.healthy[i] = true
	}
	return p
}

// Start launches the probe loop. Idempotent.
func (p *Prober) Start() {
	p.startOnce.Do(func() {
		go func() {
			defer close(p.done)
			t := time.NewTicker(p.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-p.stop:
					return
				case <-t.C:
					p.probeOnce()
				}
			}
		}()
	})
}

// Stop ends the probe loop and waits for it to exit. Idempotent; safe
// to call without Start.
func (p *Prober) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.startOnce.Do(func() { close(p.done) }) // never started: nothing to wait for
	<-p.done
}

// probeOnce probes every worker concurrently and applies the threshold
// state machine to each outcome.
func (p *Prober) probeOnce() {
	var wg sync.WaitGroup
	for i, c := range p.clients {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), p.cfg.Timeout)
			defer cancel()
			p.record(i, c.Ready(ctx) == nil)
		}(i, c)
	}
	wg.Wait()
}

// record applies one probe outcome to worker i's state machine.
func (p *Prober) record(i int, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ok {
		p.fails[i] = 0
		p.oks[i]++
		if !p.healthy[i] && p.oks[i] >= p.cfg.LiveThreshold {
			p.healthy[i] = true
		}
	} else {
		p.oks[i] = 0
		p.fails[i]++
		if p.healthy[i] && p.fails[i] >= p.cfg.FailThreshold {
			p.healthy[i] = false
		}
	}
}

// Healthy reports whether worker i (by index into the fleet's client
// slice) is currently serving reads. A dead worker is demoted to last
// resort, not removed: failover on errors still applies, the probe only
// takes it out of the first-choice read set proactively.
func (p *Prober) Healthy(i int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < 0 || i >= len(p.healthy) {
		return true
	}
	return p.healthy[i]
}

// WorkerHealth is one worker's probe state, for metrics exposition.
type WorkerHealth struct {
	Worker  string
	Healthy bool
}

// Snapshot returns every worker's current state in fleet order.
func (p *Prober) Snapshot() []WorkerHealth {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]WorkerHealth, len(p.healthy))
	for i := range p.healthy {
		name := ""
		if i < len(p.names) {
			name = p.names[i]
		}
		out[i] = WorkerHealth{Worker: name, Healthy: p.healthy[i]}
	}
	return out
}
