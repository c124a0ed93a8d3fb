package core

// RunSequential executes the problem exactly as Algorithm 1 does: tasks are
// handled in strict priority order, dead tasks are skipped, and every other
// task is processed. It is both the correctness oracle for the relaxed
// executors (their outputs must be identical) and the sequential baseline of
// the paper's speedup plots.
func RunSequential(p Problem, labels []uint32) (Result, error) {
	n := p.NumTasks()
	if err := ValidateLabels(n, labels); err != nil {
		return Result{}, err
	}
	st := newSeqState(labels)
	inst := p.NewInstance(st)
	order := TasksByLabel(labels)

	var res Result
	res.Instance = inst
	for _, task := range order {
		v := int(task)
		res.Iterations++
		if inst.Dead(v) {
			res.DeadSkips++
			continue
		}
		// In strict priority order a task can never be blocked: all of its
		// higher-priority dependencies have already been handled.
		inst.Process(v)
		st.markProcessed(v)
		res.Processed++
	}
	return res, nil
}
