package serve

import (
	"lockin/internal/bench/opts"
	"lockin/internal/experiments"
	"lockin/internal/results"
)

// AddFailedJob puts a job for key into the server's table as a run
// whose simulation failed with msg, as runJob leaves it.
func AddFailedJob(s *Server, key, msg string) {
	j := newJob(key, experiments.Experiment{ID: "failed"}, opts.Defaults())
	j.fail(msg)
	s.mu.Lock()
	s.jobs[key] = j
	s.mu.Unlock()
}

// HeldRun returns the decoded run the query endpoints hold for key, or
// nil, without marking it queried.
func HeldRun(s *Server, key string) *results.Run {
	s.held.mu.Lock()
	defer s.held.mu.Unlock()
	if e := s.held.byKey[key]; e != nil {
		return e.Value.(*heldRun).run
	}
	return nil
}

// HeldBytes returns the stored bytes and the number of the held runs.
func HeldBytes(s *Server) (bytes int64, runs int) {
	s.held.mu.Lock()
	defer s.held.mu.Unlock()
	return s.held.bytes, len(s.held.byKey)
}

// SetHeldBudget empties the held runs and sets their budget, so a test
// can overflow it with a few small runs.
func SetHeldBudget(s *Server, budget int64) {
	s.held.mu.Lock()
	defer s.held.mu.Unlock()
	for s.held.order.Len() > 0 {
		s.held.removeLocked(s.held.order.Back())
	}
	s.held.budget = budget
}
