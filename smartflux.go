// Package smartflux is a middleware framework for adaptive execution of
// continuous, data-intensive workflows, reproducing "Adaptive Execution of
// Continuous and Data-intensive Workflows with Machine Learning" (Esteves,
// Galhardas, Veiga — Middleware '18).
//
// Workflows are DAGs of processing steps that communicate through data
// containers in a columnar key-value store. Instead of re-executing every
// step on every wave of input (the Synchronous Data-Flow model), SmartFlux
// learns — with a multi-label Random Forest — how each step's input impact
// (ι) relates to the output error (ε) incurred by skipping it, and triggers
// a step only when its user-specified error bound (maxε) would otherwise be
// exceeded. The result is substantial resource savings at a bounded,
// probabilistically guaranteed output deviation.
//
// # Quick start
//
// Build a workflow, declare Quality-of-Data bounds on the steps that may be
// skipped, and run the training → application lifecycle:
//
//	wf := smartflux.NewWorkflow("pipeline")
//	wf.AddStep(&smartflux.Step{
//		ID:      "ingest",
//		Source:  true,
//		Outputs: []smartflux.Container{{Table: "raw"}},
//		Proc:    smartflux.ProcessorFunc(ingest),
//	})
//	wf.AddStep(&smartflux.Step{
//		ID:      "aggregate",
//		Inputs:  []smartflux.Container{{Table: "raw"}},
//		Outputs: []smartflux.Container{{Table: "agg"}},
//		QoD:     smartflux.QoD{MaxError: 0.1},
//		Proc:    smartflux.ProcessorFunc(aggregate),
//	})
//	wf.Finalize()
//
// See the examples/ directory for complete programs and internal/experiments
// for the paper's full evaluation.
package smartflux

import (
	"io"

	"smartflux/internal/core"
	"smartflux/internal/durable"
	"smartflux/internal/engine"
	"smartflux/internal/kvstore"
	"smartflux/internal/kvstore/kvnet"
	"smartflux/internal/metric"
	"smartflux/internal/ml"
	"smartflux/internal/obs"
	"smartflux/internal/workflow"
)

// Storage layer: the versioned columnar key-value store steps communicate
// through (an embedded HBase stand-in).
type (
	// Store is a collection of named tables with a shared logical clock.
	Store = kvstore.Store
	// Table is a sparse sorted map of (row, column) to versioned values.
	Table = kvstore.Table
	// Batch is an atomically applied set of mutations.
	Batch = kvstore.Batch
	// Mutation is one put, with its new value, or delete, as observers see it.
	Mutation = kvstore.Mutation
	// Observer receives mutations applied to a table.
	Observer = kvstore.Observer
	// Cell is a fully qualified cell returned by scans.
	Cell = kvstore.Cell
	// ScanOptions selects cells for Table.Scan.
	ScanOptions = kvstore.ScanOptions
	// TableOptions configures table creation.
	TableOptions = kvstore.TableOptions
)

// Workflow model (paper §2).
type (
	// Workflow is a DAG of processing steps.
	Workflow = workflow.Workflow
	// Step is one processing step with its QoD annotation.
	Step = workflow.Step
	// StepID identifies a step.
	StepID = workflow.StepID
	// Container references a data container (table + column prefix).
	Container = workflow.Container
	// QoD is a step's Quality-of-Data configuration.
	QoD = workflow.QoD
	// Context is passed to step processors.
	Context = workflow.Context
	// Processor is a step's computation.
	Processor = workflow.Processor
	// ProcessorFunc adapts a function to Processor.
	ProcessorFunc = workflow.ProcessorFunc
)

// Execution engine.
type (
	// BuildFunc constructs one fresh instance of a workload. A harness
	// builds two — live and reference — and may run them at the same time,
	// so the copies must share no mutable state (see engine.BuildFunc).
	BuildFunc = engine.BuildFunc
	// Decider is a triggering policy consulted per wave and step.
	Decider = engine.Decider
	// Harness pairs a live and a synchronous reference instance.
	Harness = engine.Harness
	// HarnessConfig configures harness construction (parallelism).
	HarnessConfig = engine.HarnessConfig
	// InstanceConfig configures a standalone instance.
	InstanceConfig = engine.InstanceConfig
	// Instance executes one workflow wave by wave.
	Instance = engine.Instance
	// Result aggregates a harness run.
	Result = engine.Result
	// StepReport carries per-wave error measurements.
	StepReport = engine.StepReport
)

// Learning layer (paper §3).
type (
	// Session is the QoD engine: knowledge base + predictor + lifecycle.
	Session = core.Session
	// SessionConfig configures a session.
	SessionConfig = core.Config
	// TestReport carries test-phase quality metrics.
	TestReport = core.TestReport
	// Predictor is the trained multi-label model.
	Predictor = core.Predictor
	// PipelineConfig configures an end-to-end lifecycle run; its Policy is the
	// Decider of the application phase (nil = a SmartFlux session).
	PipelineConfig = core.PipelineConfig
	// PipelineResult aggregates an end-to-end run: one harness run, of which
	// Train and Apply are views (Result.Slice).
	PipelineResult = core.PipelineResult
	// Classifier is a binary classifier usable as a session factory.
	Classifier = ml.Classifier
)

// Metrics (paper §2.1-2.2, §4.2).
type (
	// Metric is the user-extensible impact/error metric API.
	Metric = metric.Metric
	// MetricContext carries container aggregates to Metric.Compute.
	MetricContext = metric.Context
	// MetricFactory creates fresh Metric instances.
	MetricFactory = metric.Factory
	// Mode selects baseline semantics (accumulate vs cancellation).
	Mode = metric.Mode
	// Columns is a snapshot of a container's numeric contents: Keys
	// ("row/column") strictly increasing and never written, Vals[i] the
	// value of Keys[i], owned by whoever filled it. Table.ScanColumns and
	// Instance.OutputState return one; a tracker observes and commits one
	// (MetricTracker.ObserveColumns, CommitColumns), copying its values.
	Columns = metric.Columns
	// MetricTracker holds a metric's baseline across waves (the
	// Monitoring component's per-container bookkeeping).
	MetricTracker = metric.Tracker
)

// NewMetricTracker creates a tracker that applies a (possibly custom §4.2)
// metric across waves under the given baseline mode.
func NewMetricTracker(factory MetricFactory, mode Mode) *MetricTracker {
	return metric.NewTracker(factory, mode)
}

// DriftDetector watches application-phase prediction quality and signals
// when the model should be retrained (§3.1's on-demand retraining).
type DriftDetector = core.DriftDetector

// NewDriftDetector creates a drift detector over a sliding window that
// signals when the disagreement rate exceeds threshold.
func NewDriftDetector(window int, threshold float64) *DriftDetector {
	return core.NewDriftDetector(window, threshold)
}

// Baseline modes.
const (
	// ModeCancellation compares against the state at the last execution.
	ModeCancellation = metric.ModeCancellation
	// ModeAccumulate accumulates per-wave deltas since the last execution.
	ModeAccumulate = metric.ModeAccumulate
)

// Built-in metric function names, usable as QoD.ImpactFunc and QoD.ErrorFunc.
const (
	FuncAbsoluteImpact = metric.FuncAbsoluteImpact
	FuncRelativeImpact = metric.FuncRelativeImpact
	FuncRelativeError  = metric.FuncRelativeError
	FuncRMSE           = metric.FuncRMSE
)

// Observability (metrics registry + decision tracing + debug server).
//
// A RunObserver bundles a metrics registry with trace sinks; attach it with
// the Instrument method present on Harness, Instance, Session, Store and the
// kvnet Server, or via PipelineConfig.Obs. All hooks are no-ops when nothing
// is attached.
type (
	// MetricsRegistry is a lock-cheap registry of counters, gauges and
	// streaming histograms with Prometheus text exposition.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a registry's contents.
	MetricsSnapshot = obs.Snapshot
	// HistogramSnapshot summarizes one histogram (count, sum, quantiles).
	HistogramSnapshot = obs.HistogramSnapshot
	// RunObserver bundles a metrics registry and a decision tracer.
	RunObserver = obs.Observer
	// DecisionEvent is one traced triggering decision: the ι features, the
	// predicted label, the decider verdict, whether the step ran, and the
	// measured/predicted ε when known.
	DecisionEvent = obs.DecisionEvent
	// TraceSink receives decision events.
	TraceSink = obs.Sink
	// TraceRing is a fixed-capacity in-memory trace sink.
	TraceRing = obs.RingSink
	// JSONLTraceSink appends decision events as JSON lines. It is also a
	// SpanSink: spans and decision events interleave in one stream,
	// discriminated by the "type" field.
	JSONLTraceSink = obs.JSONLSink
	// DebugServer serves /metrics, /trace/tail, /trace/spans and pprof
	// over HTTP.
	DebugServer = obs.DebugServer
	// Span is one timed node of the causal run → wave → step → attempt →
	// op tree; see RunObserver.WithSpanSinks and DESIGN.md §9.
	Span = obs.Span
	// SpanEvent is the wire record of one completed span.
	SpanEvent = obs.SpanEvent
	// SpanSink receives completed spans.
	SpanSink = obs.SpanSink
	// SpanRing is a fixed-capacity in-memory span sink, doubling as the
	// crash flight recorder.
	SpanRing = obs.SpanRing
)

// Resilience sentinels, matchable with errors.Is through every layer's
// wrapping (see DESIGN.md §2 "Resilience").
var (
	// ErrStepTimeout marks a step execution attempt exceeding the
	// configured step timeout.
	ErrStepTimeout = engine.ErrStepTimeout
	// ErrNetClosed reports an operation on a kvnet client whose Close has
	// begun.
	ErrNetClosed = kvnet.ErrClosed
	// ErrNetTimeout reports a kvnet I/O deadline expiring; the underlying
	// net.Error stays reachable via errors.As.
	ErrNetTimeout = kvnet.ErrTimeout
)

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewRunObserver bundles a registry and trace sinks into an observer. Either
// part may be omitted: a nil registry records no metrics, zero sinks disable
// tracing.
func NewRunObserver(reg *MetricsRegistry, sinks ...TraceSink) *RunObserver {
	return obs.New(reg, sinks...)
}

// OpenObserver turns the -obs-addr, -trace-out and -span-out flags of a
// command line into one observer: decision events to traceOut, causal spans
// plus decision events to spanOut, and with addr a debug server, whose
// address it announces on out. All three empty yields a nil observer. The
// returned close function must be called even then: it stops the server,
// closes the files and returns the first sink write error or file close
// error, so a trace that could not be written in full fails the run.
func OpenObserver(addr, traceOut, spanOut string, out io.Writer) (*RunObserver, func() error, error) {
	return obs.Open(addr, traceOut, spanOut, out)
}

// NewTraceRing creates an in-memory trace sink keeping the last capacity
// events.
func NewTraceRing(capacity int) *TraceRing { return obs.NewRingSink(capacity) }

// NewJSONLTraceSink creates a trace sink that writes one JSON object per
// event to w.
func NewJSONLTraceSink(w io.Writer) *JSONLTraceSink { return obs.NewJSONLSink(w) }

// NewSpanRing creates an in-memory span sink keeping the last capacity
// spans (a default bound when capacity <= 0). Attach it with
// RunObserver.WithSpanSinks; when attached it also serves as the crash
// flight recorder.
func NewSpanRing(capacity int) *SpanRing { return obs.NewSpanRing(capacity) }

// StartDebugServer serves /metrics (Prometheus text), /trace/tail (recent
// decision events from ring, which may be nil), /trace/spans (recent spans
// from spans, which may be nil), /healthz and /debug/pprof on addr. Pass
// "127.0.0.1:0" for an ephemeral port; the bound address is available via
// Addr().
func StartDebugServer(addr string, reg *MetricsRegistry, ring *TraceRing, spans *SpanRing) (*DebugServer, error) {
	return obs.StartDebugServer(addr, reg, ring, spans)
}

// NewStore creates an empty data store.
func NewStore() *Store { return kvstore.New() }

// NewWorkflow creates an empty workflow.
func NewWorkflow(name string) *Workflow { return workflow.New(name) }

// NewSession creates a SmartFlux session in the training phase.
func NewSession(cfg SessionConfig) *Session { return core.NewSession(cfg) }

// NewHarness builds live and reference instances of a workload. reportSteps
// selects the steps whose output error is measured (nil = the last gated
// step).
func NewHarness(build BuildFunc, reportSteps []StepID) (*Harness, error) {
	return engine.NewHarness(build, reportSteps)
}

// NewHarnessWithConfig is NewHarness with an explicit configuration: step
// timeouts, retries, degradation, wave retries and a wave committer. Each
// of the two instances runs its wave on one goroutine, the two side by side.
func NewHarnessWithConfig(build BuildFunc, reportSteps []StepID, cfg HarnessConfig) (*Harness, error) {
	return engine.NewHarnessWithConfig(build, reportSteps, cfg)
}

// NewInstance binds a finalized workflow to a store for wave-by-wave
// execution.
func NewInstance(wf *Workflow, store *Store) (*Instance, error) {
	return engine.NewInstance(wf, store, engine.InstanceConfig{})
}

// NewInstanceWithConfig is NewInstance with an explicit configuration.
func NewInstanceWithConfig(wf *Workflow, store *Store, cfg InstanceConfig) (*Instance, error) {
	return engine.NewInstance(wf, store, cfg)
}

// RunPipeline executes the full lifecycle as one harness run: synchronous
// training waves, then the same run continued under cfg.Policy — by default a
// SmartFlux session, the policy that builds and tests a model in between.
func RunPipeline(build BuildFunc, reportSteps []StepID, cfg PipelineConfig) (*PipelineResult, error) {
	return core.RunPipeline(build, reportSteps, cfg)
}

// Crash durability (DESIGN.md §6): every kvstore mutation is written to a
// CRC-checksummed write-ahead log, every completed wave commits a full
// harness + session checkpoint (the commit wave is the result's wave count),
// and the log is periodically rotated to a fresh epoch that starts compacted.
// After a crash, ResumePipeline reconstructs the stores and the learning
// state from the newest epoch's log and continues the run — bit-identically
// to an execution that never crashed, under any PipelineConfig.Policy.
type (
	// DurableOptions configures the durability directory, snapshot cadence
	// and fsync policy of a durable run.
	DurableOptions = core.DurableOptions
	// DurableRunInfo reports recovery and WAL statistics of a durable run.
	DurableRunInfo = core.DurableRunInfo
	// FsyncMode selects when the write-ahead log is flushed to disk.
	FsyncMode = durable.FsyncMode
	// DurableStats holds the WAL manager's cumulative counters.
	DurableStats = durable.Stats
	// RecoveryStats summarizes one crash recovery.
	RecoveryStats = durable.RecoveryStats
)

// Fsync policies for DurableOptions.Fsync.
const (
	// FsyncCommit flushes once per committed wave (the default).
	FsyncCommit = durable.FsyncCommit
	// FsyncNever leaves flushing to the OS.
	FsyncNever = durable.FsyncNever
)

// ParseFsyncMode parses "commit" or "never".
func ParseFsyncMode(s string) (FsyncMode, error) { return durable.ParseFsyncMode(s) }

// RunPipelineDurable is RunPipeline with crash durability under opts.Dir.
// The directory must not already hold durable state; use ResumePipeline to
// continue a crashed run.
func RunPipelineDurable(build BuildFunc, reportSteps []StepID, cfg PipelineConfig, opts DurableOptions) (*PipelineResult, *DurableRunInfo, error) {
	return core.RunPipelineDurable(build, reportSteps, cfg, opts)
}

// ResumePipeline continues a crashed durable pipeline from the state under
// opts.Dir. cfg must match the original run; the result is bit-identical to
// an uncrashed RunPipelineDurable.
func ResumePipeline(build BuildFunc, reportSteps []StepID, cfg PipelineConfig, opts DurableOptions) (*PipelineResult, *DurableRunInfo, error) {
	return core.ResumePipeline(build, reportSteps, cfg, opts)
}

// Triggering policies, for PipelineConfig.Policy or a Harness of one's own.

// SyncPolicy returns the Synchronous Data-Flow policy (every step, every
// wave).
func SyncPolicy() Decider { return engine.Sync{} }

// RandomPolicy returns the uniformly random policy of Figure 11.
func RandomPolicy(p float64, seed int64) Decider { return engine.NewRandom(p, seed) }

// SeqPolicy returns the execute-every-N-waves policy of Figure 11.
func SeqPolicy(n int) Decider { return engine.NewSeq(n) }

// OraclePolicy returns the simulated-optimal policy: run through a pipeline
// or a Harness, its decisions replay the reference instance's per-wave labels
// (Figure 12's "optimal").
func OraclePolicy() Decider { return &engine.Oracle{} }

// ParseContainer parses a "table" or "table/columnPrefix" reference.
func ParseContainer(s string) (Container, error) { return workflow.ParseContainer(s) }

// EncodeFloat encodes a float64 cell value.
func EncodeFloat(v float64) []byte { return kvstore.EncodeFloat(v) }

// DecodeFloat decodes a float64 cell value.
func DecodeFloat(b []byte) (float64, error) { return kvstore.DecodeFloat(b) }

// NewBatch creates an empty mutation batch.
func NewBatch() *Batch { return kvstore.NewBatch() }
