package phonecall

import "context"

// Cancellation seam: the protocols in this repository drive the engine
// through plain round loops (`for { net.ExecCalls(...) }`) that predate any
// notion of a caller deadline, and rewriting every algorithm to check an
// error per round would change the callback contract everywhere. Instead the
// Network itself carries the caller's context: every round checks it before
// any work of the round and, when the context is done, unwinds the whole
// round loop with a typed panic that the run drivers (internal/run,
// internal/scenario via RecoverAbort) convert back into the context's error.
// The panic never crosses a package boundary uncontrolled — every driver
// that calls SetContext installs RecoverAbort on the same call path.

// execAbort is the typed panic value that unwinds an execution whose bound
// context was cancelled or timed out.
type execAbort struct{ err error }

// SetContext binds ctx to the network. From the next round on, a done
// context aborts the execution before the round does any work: the round
// counter does not advance, no call is evaluated, and the abort unwinds to
// the nearest RecoverAbort. A nil ctx unbinds. Must only be called between
// rounds, like Fail and SetLoss.
func (net *Network) SetContext(ctx context.Context) { net.ctx = ctx }

// checkAbort panics with execAbort when the bound context is done.
func (net *Network) checkAbort() {
	if net.ctx != nil {
		if err := net.ctx.Err(); err != nil {
			panic(execAbort{err})
		}
	}
}

// RecoverAbort is the deferred companion of SetContext: it converts a
// context abort unwinding the round loop into the context's error, leaving
// every other panic untouched. Drivers use it as
//
//	func run(ctx context.Context, ...) (res Result, err error) {
//		net.SetContext(ctx)
//		defer phonecall.RecoverAbort(&err)
//		...
//	}
func RecoverAbort(err *error) {
	switch r := recover().(type) {
	case nil:
	case execAbort:
		if *err == nil {
			*err = r.err
		}
	default:
		panic(r)
	}
}
