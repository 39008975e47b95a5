package ust

import (
	"net/http"

	"ust/internal/service"
)

// The service layer: a multi-tenant, wire-ready server over the query
// engine. A Service owns named datasets (each a Database/Engine pair),
// applies per-request deadlines and admission control, coalesces
// identical in-flight requests (single-flight) on top of the engine's
// shared score cache, and pushes incremental results to standing
// queries through Subscribe. NewServiceHandler exposes the whole thing
// over HTTP/NDJSON — the surface cmd/ustserve serves and package
// ust/client consumes.

type (
	// Service is the multi-tenant serving layer; see NewService.
	Service = service.Service
	// ServiceConfig tunes a Service (engine options, admission width,
	// default deadline).
	ServiceConfig = service.Config
	// DatasetInfo describes one named dataset of a Service.
	DatasetInfo = service.Info
	// ServiceStats is a snapshot of the service-wide counters
	// (requests, single-flight coalescing, admissions, subscriptions).
	ServiceStats = service.Stats
	// Subscription is a standing query delivering incremental updates;
	// see Service.Subscribe.
	Subscription = service.Subscription
	// Update is one incremental refresh of a Subscription.
	Update = service.Update
)

// Service-layer sentinel errors.
var (
	// ErrUnknownDataset: the named dataset does not exist.
	ErrUnknownDataset = service.ErrUnknownDataset
	// ErrDatasetExists: create/load would overwrite an existing dataset.
	ErrDatasetExists = service.ErrDatasetExists
	// ErrServiceOverloaded: admission control could not grant a slot
	// before the request's deadline.
	ErrServiceOverloaded = service.ErrOverloaded
	// ErrServiceClosed: the service has been shut down.
	ErrServiceClosed = service.ErrClosed
)

// DefaultMaxConcurrent is the default admission-limiter width of a
// Service.
const DefaultMaxConcurrent = service.DefaultMaxConcurrent

// NewService builds an empty multi-tenant service; register datasets
// with Create or Load.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// NewServiceHandler exposes svc over HTTP: /v1/query (JSON),
// /v1/query/stream (NDJSON), /v1/subscribe (NDJSON push), /v1/datasets
// (load, ingest, inspect), /healthz and /metrics. Mount it on any
// http.Server; cmd/ustserve is a thin wrapper around exactly this.
func NewServiceHandler(svc *Service) http.Handler { return service.NewHandler(svc) }
