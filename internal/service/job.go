package service

import (
	"fmt"
	"math"
	"time"

	"relaxsched/internal/api"
	"relaxsched/internal/workload"
)

// validateSpec checks everything that can be rejected at admission time,
// reusing the same validators the CLIs use (workload.ValidateFlags,
// workload.ParseMode, registry lookup) so the service and the CLIs agree on
// what a well-formed request is. The wire type's own GraphSpec.Validate
// covers the registry-independent half; binding-time errors that need the
// graph (e.g. an sssp source beyond the vertex count) surface when the job
// runs.
func validateSpec(s api.JobSpec) error {
	if s.Workload == "" {
		return fmt.Errorf("workload is required")
	}
	if _, err := workload.Lookup(s.Workload); err != nil {
		return err
	}
	if _, err := workload.ParseMode(s.Mode); err != nil {
		return err
	}
	if err := workload.ValidateFlags(s.K, s.Threads, s.Batch); err != nil {
		return err
	}
	if err := s.Graph.Validate(); err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	if s.Tolerance < 0 || math.IsInf(s.Tolerance, 1) || math.IsNaN(s.Tolerance) {
		return fmt.Errorf("invalid tolerance %v: must be positive (0 selects the default)", s.Tolerance)
	}
	if s.Damping != 0 && !(s.Damping > 0 && s.Damping < 1) {
		return fmt.Errorf("invalid damping %v: must lie in (0, 1) (0 selects the default)", s.Damping)
	}
	if s.Source < -1 {
		return fmt.Errorf("invalid source %d: must be -1 (auto) or a vertex id", s.Source)
	}
	return nil
}

// runConfig maps the spec onto the registry's mode-dispatch config.
func runConfig(s api.JobSpec) (workload.RunConfig, error) {
	mode, err := workload.ParseMode(s.Mode)
	if err != nil {
		return workload.RunConfig{}, err
	}
	return workload.RunConfig{
		Mode:    mode,
		K:       s.K,
		Threads: s.Threads,
		Batch:   s.Batch,
	}, nil
}

// runParams maps the spec onto the registry's workload parameters.
func runParams(s api.JobSpec) workload.Params {
	return workload.Params{
		Seed:      s.Seed,
		Delta:     s.Delta,
		Damping:   s.Damping,
		Tolerance: s.Tolerance,
		Source:    s.Source,
	}
}

// job is the manager's internal record.
type job struct {
	id        int64
	spec      api.JobSpec
	state     api.JobState
	err       error
	result    *api.JobResult
	queueRank int
	queueTime time.Duration
	submitted time.Time
	// recovered marks a job replayed from the write-ahead log at boot.
	recovered bool
	// traceID is the request-correlation ID minted (or forwarded) at
	// admission; it rides on the job's lifecycle trace and log lines.
	traceID string
}

func (j *job) status() api.JobStatus {
	st := api.JobStatus{
		ID:          j.id,
		State:       j.state,
		Spec:        j.spec,
		QueueRank:   j.queueRank,
		QueueNanos:  j.queueTime.Nanoseconds(),
		SubmittedAt: j.submitted,
		Recovered:   j.recovered,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.result != nil {
		r := *j.result
		st.Result = &r
	}
	return st
}
