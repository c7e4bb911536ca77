package machine

import "lockin/internal/coherence"

// isFree is SpinAcquire's spin predicate: the word reads 0.
func isFree(v uint64) bool { return v == 0 }

// SpinAcquire takes a spinlock whose word l is free at 0. It makes the
// atomic attempt on l, which won if the word was 0, and while attempts
// lose, it spins under pol until the word reads 0 and tries again. TAS
// and TTAS are this loop with their own attempt.
//
// After a lost attempt the thread runs the spin call that SpinUntil
// runs, with an attempt (the coherence operation, then its cost through
// sched.Thread.Carry) after each wait, so a lost retry costs no
// coroutine switch and the thread resumes once, when an attempt wins.
//
// attempt is kept between the callbacks, so it should capture nothing,
// or each retry allocates.
func (t *Thread) SpinAcquire(l *coherence.Line, attempt func(uint64) (uint64, bool), pol WaitPolicy) {
	if old, _ := t.RMW(l, attempt); old == 0 {
		return
	}
	t.spinCall(spinArgs{line: l, pred: isFree, pol: pol, attempt: attempt})
}
