// Package workload is the registry that ties the repository's algorithms to
// the execution engine, schedulers, CLIs and benchmark harness.
//
// Every algorithm the repository can run under a scheduler — the static
// framework workloads (MIS, coloring, matching) and the dynamic-priority
// workloads (SSSP, k-core, PageRank) — registers one Descriptor here, in its
// own file of this package. A Descriptor names the workload, states which
// of the engine's two contracts it implements, describes its input and
// wasted-work metric, and knows how to bind itself to a graph. Everything
// downstream — cmd/relaxrun, cmd/relaxbench and internal/bench, relaxd's
// job service, and the static-framework simulations in internal/sim —
// dispatches through the registry instead of hand-rolled per-algorithm
// switches, so adding workload #7 is one new file in this package (see
// ARCHITECTURE.md for the walkthrough).
//
// One engine (internal/core), two contracts behind Kind:
//
//   - Static: a fixed task set under a static priority permutation — a
//     core.Problem, run by core.RunRelaxed / core.RunConcurrent, which adapt
//     it to the engine. Output is bit-identical to the sequential
//     algorithm's regardless of scheduler relaxation; wasted work appears as
//     failed deletes and dead skips.
//   - Dynamic: tasks carry mutable priorities and generate work at runtime —
//     a core.DynamicProblem, run by core.RunDynamic /
//     core.RunDynamicConcurrent directly. Exactness comes from the problem's
//     monotone state updates; wasted work appears as stale pops and
//     re-evaluations.
package workload

import (
	"fmt"
	"sort"
	"sync"

	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/sched"
)

// Kind classifies which of the engine's contracts a workload implements.
type Kind int

const (
	// Static marks fixed-task-set workloads under a static priority
	// permutation: a core.Problem behind the static adapter
	// (core.RunConcurrent).
	Static Kind = iota + 1
	// Dynamic marks mutable-priority workloads that implement
	// core.DynamicProblem themselves (core.RunDynamicConcurrent).
	Dynamic
)

// String returns "static" or "dynamic".
func (k Kind) String() string {
	switch k {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Params carries the per-workload knobs the CLIs and the bench harness
// expose. Zero values select workload defaults; workloads ignore knobs that
// do not apply to them.
type Params struct {
	// Seed drives every randomized input the workload derives from the
	// graph: priority permutations, edge weights, scheduler tie-breaking.
	Seed uint64
	// Delta is the Δ-stepping bucket width for sssp priorities (0 or 1 keep
	// exact distances).
	Delta uint32
	// Damping is the PageRank damping factor (0 selects the default 0.85).
	Damping float64
	// Tolerance is the PageRank target L1 error (0 selects the default
	// 1e-9). Explicitly negative or otherwise invalid values are rejected by
	// the pagerank workload rather than silently defaulted.
	Tolerance float64
	// Source is the sssp source vertex; negative selects the first
	// non-isolated vertex.
	Source int
}

// Cost is the uniform work accounting of one scheduler-driven execution.
type Cost struct {
	// Pops is the number of scheduler deliveries.
	Pops int64
	// StalePops is the number of deliveries dropped without useful work
	// (blocked-task failed deletes for static workloads, stale items for
	// dynamic ones).
	StalePops int64
	// Wasted is the workload's headline wasted-work metric, labeled by
	// Descriptor.WastedWork: extra iterations for the static framework,
	// stale pops for sssp, extra re-evaluations for kcore, stale pops +
	// re-pushes for pagerank.
	Wasted int64
	// EmptyPolls is the number of scheduler polls that found nothing while
	// work remained (concurrent executions only).
	EmptyPolls int64
	// Steals and GlobalFallbacks are the concurrent MultiQueue's contention
	// accounting (multiqueue.Stats): pops served from another worker's
	// shard, and affine pops that fell through to global two-choice
	// sampling. Zero outside ModeConcurrent.
	Steals          int64
	GlobalFallbacks int64
}

// ConcOptions configures Instance.RunConcurrent.
type ConcOptions struct {
	// Workers is the number of goroutines processing tasks (at least 1).
	Workers int
	// BatchSize is the executor batch size (0 selects the executor default).
	BatchSize int
	// Policy selects how static workloads handle a task delivered while
	// blocked (the zero value is core.Reinsert, the relaxed-scheduler
	// default). Dynamic workloads ignore it.
	Policy core.Policy
	// Cancel, when non-nil, aborts the execution when closed (a context's
	// Done channel fits directly); the run then returns core.ErrCanceled.
	// Long-running services use it to abort in-flight jobs on shutdown.
	Cancel <-chan struct{}
	// Tunable, when non-nil, supplies the executor batch size dynamically
	// (overriding BatchSize): workers re-read it every batch episode, which
	// is how relaxd's adaptive controller retunes in-flight executions.
	Tunable *core.TunableOptions
}

// Output is the result of one execution of a workload.
type Output interface {
	// Fingerprint is an order-sensitive hash of the output, used by exact
	// workloads to compare runs cheaply. Approximate workloads (pagerank)
	// return 0 and compare through Instance.Matches instead.
	Fingerprint() uint64
	// Summary is a one-line human-readable account of the output, e.g.
	// "MIS size: 123" or "degeneracy: 54".
	Summary() string
}

// Instance is a workload bound to one input graph (plus whatever derived
// inputs — permutations, weights — its Descriptor.New produced).
type Instance interface {
	// NumTasks returns the size of the scheduler's task-id space: vertices
	// for the vertex workloads, edges for matching. Callers size concurrent
	// schedulers with it.
	NumTasks() int
	// RunSequential executes the optimized sequential baseline and returns
	// its output — also the reference for Matches.
	RunSequential() Output
	// RunRelaxed executes under a (possibly relaxed) sequential-model
	// scheduler.
	RunRelaxed(s sched.Scheduler) (Output, Cost, error)
	// RunConcurrent executes under a concurrent scheduler with worker
	// goroutines.
	RunConcurrent(s sched.Concurrent, opts ConcOptions) (Output, Cost, error)
	// Verify checks an output against the workload's exactness oracle
	// (recomputing it if needed): greedy-sequential equality for the static
	// workloads, Dijkstra/peeling oracles for sssp and kcore, the
	// power-iteration oracle within tolerance for pagerank.
	Verify(out Output) error
	// Matches is the cheap per-trial check the bench harness runs: it
	// compares an execution's output against a reference output of the same
	// instance (fingerprint equality for exact workloads, an L1 bound for
	// pagerank).
	Matches(reference, got Output) error
}

// Descriptor describes one registered workload.
type Descriptor struct {
	// Name is the registry key, as used by -algo / -workload flags.
	Name string
	// Kind states which contract the workload implements.
	Kind Kind
	// Brief is a one-line description for CLI listings.
	Brief string
	// Input describes what the workload consumes beyond the graph itself.
	Input string
	// WastedWork labels the Cost.Wasted metric, e.g. "extra iterations".
	WastedWork string
	// New binds the workload to a graph, deriving auxiliary inputs (priority
	// permutations, edge weights, tolerances) from p. Callers size
	// schedulers with the bound Instance's NumTasks.
	New func(g *graph.Graph, p Params) (Instance, error)
}

// The registry is guarded by a mutex: registration normally happens from
// this package's init functions, but long-running services (relaxd) call
// Lookup/Names/All from request handlers concurrently, and nothing stops a
// future workload from registering lazily from a non-init path.
var (
	registryMu sync.RWMutex
	registry   = make(map[string]*Descriptor)
)

// Register adds a workload descriptor to the registry. It panics on a
// duplicate or empty name or a descriptor missing its constructors —
// registration happens from init functions in this package, so a bad
// descriptor is a programming error, not an input error. Register is safe
// for concurrent use with itself and with Lookup/Names/All.
func Register(d Descriptor) {
	if d.Name == "" {
		panic("workload: Register called with an empty name")
	}
	if d.New == nil {
		panic(fmt.Sprintf("workload: descriptor %q is missing its New constructor", d.Name))
	}
	if d.Kind != Static && d.Kind != Dynamic {
		panic(fmt.Sprintf("workload: descriptor %q has invalid kind %d", d.Name, d.Kind))
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[d.Name]; dup {
		panic(fmt.Sprintf("workload: Register called twice for %q", d.Name))
	}
	stored := d
	registry[d.Name] = &stored
}

// Lookup returns the named workload's descriptor.
func Lookup(name string) (*Descriptor, error) {
	registryMu.RLock()
	d, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q (known: %v)", name, Names())
	}
	return d, nil
}

// Names returns the registered workload names, in sorted (deterministic)
// order regardless of registration order.
func Names() []string {
	registryMu.RLock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	registryMu.RUnlock()
	sort.Strings(names)
	return names
}

// All returns the registered descriptors, sorted by name.
func All() []*Descriptor {
	names := Names()
	registryMu.RLock()
	defer registryMu.RUnlock()
	all := make([]*Descriptor, 0, len(names))
	for _, name := range names {
		if d, ok := registry[name]; ok {
			all = append(all, d)
		}
	}
	return all
}

// FingerprintBools computes an order-sensitive FNV-1a fingerprint of a bool
// vector (MIS membership, matching membership).
func FingerprintBools(xs []bool) uint64 {
	h := uint64(1469598103934665603)
	for _, x := range xs {
		var b uint64
		if x {
			b = 1
		}
		h = (h ^ b) * 1099511628211
	}
	return h
}

// FingerprintInts computes an order-sensitive FNV-1a fingerprint of an
// integer vector (colors, distances, core numbers).
func FingerprintInts[T int32 | uint32](xs []T) uint64 {
	h := uint64(1469598103934665603)
	for _, x := range xs {
		h = (h ^ uint64(uint32(x))) * 1099511628211
	}
	return h
}

// fingerprintMatch is the Matches implementation of the exact workloads:
// equal fingerprints or an error naming the guarantee that broke.
func fingerprintMatch(guarantee string, reference, got Output) error {
	if reference.Fingerprint() != got.Fingerprint() {
		return fmt.Errorf("workload: output differs from the sequential output (%s violation)", guarantee)
	}
	return nil
}
