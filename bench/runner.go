package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro"
)

// procStart approximates process start: package initialisation runs before
// main, a few hundred microseconds after exec.
var procStart = time.Now()

// metric is one reported value with its unit, as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the benchmark's result line: the last line of standard output.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// counts is what a simulator operation must reproduce exactly when its seed
// repeats.
type counts struct {
	rounds, completion   int
	messages, ctrl, bits int64
}

func countsOf(rep repro.Report) counts {
	return counts{rep.Rounds, rep.CompletionRound, rep.Messages, rep.ControlMessages, rep.Bits}
}

// session runs one workload's operations in order and keeps the tallies that
// span warm-up, timed loop and traced operation.
type session struct {
	w    *workload
	s0   uint64
	opts []repro.Option
	next int // index of the next operation, for the seed cycle

	attempted int
	failures  []string
	seen      map[uint64]counts
}

func newSession(w *workload, s0 uint64) *session {
	return &session{w: w, s0: s0, seen: map[uint64]counts{}}
}

// setUp does everything that must happen before the first timed operation:
// it generates the inputs from the run seed and performs the warm-up. It can
// be repeated; each time the operation sequence starts over, so the timed loop
// always sees the same seeds.
func (s *session) setUp() error {
	opts, err := s.w.inputs(s.w, s.s0)
	if err != nil {
		return fmt.Errorf("generate inputs: %w", err)
	}
	s.opts, s.next = opts, 0
	for i := 0; i < s.w.warmup; i++ {
		s.op()
	}
	return nil
}

// op runs the next operation, with extra options appended (the traced
// operation's hooks), validates it and returns its report and wall time.
func (s *session) op(extra ...repro.Option) (repro.Report, time.Duration) {
	seed := s.w.seed(s.s0, s.next)
	s.next++
	opts := make([]repro.Option, 0, len(s.opts)+1+len(extra))
	opts = append(opts, s.opts...)
	opts = append(opts, repro.WithSeed(seed))
	opts = append(opts, extra...)

	start := time.Now()
	rep, err := repro.Run(context.Background(), s.w.n, opts...)
	wall := time.Since(start)

	s.attempted++
	if err == nil {
		err = s.w.check(s.w, rep)
	}
	if err == nil && s.w.exact {
		c := countsOf(rep)
		if prev, ok := s.seen[seed]; ok && prev != c {
			err = fmt.Errorf("seed %d is not reproducible: %+v then %+v", seed, prev, c)
		}
		s.seen[seed] = c
	}
	if err != nil {
		s.failures = append(s.failures, fmt.Sprintf("op %d (seed %d): %v", s.next-1, seed, err))
	}
	return rep, wall
}

// timed is what the timed loop measured.
type timed struct {
	setupS float64
	walls  []time.Duration // every timed operation, in order

	// Sums over the first countOps timed operations: the count metrics
	// never depend on how many operations the time budget allowed.
	countOps  int
	rounds    float64
	msgsNode  float64
	bitsNode  float64
	messages  int64
	mallocs   uint64
	allocated uint64

	// Over the whole loop.
	gcPauseNs uint64
	cpuS      float64
	loopS     float64
	peakRSSMB float64
	refBefore float64
	refAfter  float64
}

// runTimed performs the run shape: the set-up, setUps times over, then timed
// operations with tracing off — always the workload's minOps, then more until
// budget is used up (an operation is started only if, at the mean pace so
// far, it ends within the budget). Count and allocation metrics come from the
// first minOps operations only, so they are a function of the seed and never
// of the clock; the extra operations only add timing samples. Set-up time is
// the median over the repetitions; the first one runs from process start, the
// others from the end of the one before.
func (s *session) runTimed(setUps, minOps int, budget time.Duration) (timed, error) {
	t := timed{countOps: minOps}
	var setUpTimes []time.Duration
	for from := procStart; len(setUpTimes) < setUps; {
		if err := s.setUp(); err != nil {
			return t, err
		}
		now := time.Now()
		setUpTimes = append(setUpTimes, now.Sub(from))
		from = now
	}
	t.setupS = medianDuration(setUpTimes).Seconds()
	t.refBefore = refKernelMS()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpuBefore, _ := usage()
	loopStart := time.Now()
	for i := 0; ; i++ {
		if i >= minOps {
			elapsed := time.Since(loopStart)
			if elapsed+elapsed/time.Duration(i) > budget {
				break
			}
		}
		rep, wall := s.op()
		t.walls = append(t.walls, wall)
		if i < minOps {
			t.rounds += s.w.rounds(rep)
			t.msgsNode += rep.MessagesPerNode
			t.bitsNode += float64(rep.Bits) / float64(s.w.n)
			t.messages += rep.Messages + rep.ControlMessages
		}
		if i == minOps-1 {
			runtime.ReadMemStats(&after)
			t.mallocs = after.Mallocs - before.Mallocs
			t.allocated = after.TotalAlloc - before.TotalAlloc
		}
	}
	t.loopS = time.Since(loopStart).Seconds()
	cpuAfter, peakRSSMB := usage()
	t.cpuS, t.peakRSSMB = cpuAfter-cpuBefore, peakRSSMB
	runtime.ReadMemStats(&after)
	t.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	t.refAfter = refKernelMS()
	return t, nil
}

// endToEnd derives the end-to-end metrics from the timed loop.
func (t timed) endToEnd() map[string]metric {
	r := float64(t.countOps)
	msgs := float64(t.messages)
	if msgs == 0 {
		msgs = 1 // every operation failed; the result line says so
	}
	return map[string]metric{
		"setup_s":             {t.setupS, "s"},
		"op_s":                {medianDuration(t.walls).Seconds(), "s"},
		"rounds":              {t.rounds / r, "rounds"},
		"msgs_per_node":       {t.msgsNode / r, "msgs"},
		"bits_per_node":       {t.bitsNode / r, "bits"},
		"allocs_per_msg":      {float64(t.mallocs) / msgs, "allocs"},
		"alloc_bytes_per_msg": {float64(t.allocated) / msgs, "B"},
		"peak_rss_mb":         {t.peakRSSMB, "MB"},
	}
}

func medianDuration(d []time.Duration) time.Duration {
	s := slices.Sorted(slices.Values(d))
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// usage is the process's CPU time so far (user plus system) and its peak
// resident set (ru_maxrss, the kernel's VmHWM) in MB.
func usage() (cpuS, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// refBuf is allocated once so the kernel adds a constant 8 MiB to every
// workload's resident set instead of garbage.
var (
	refBuf  []uint64
	refSink uint64
)

// refKernelMS times a fixed memory-and-ALU loop (a dependent pseudo-random
// walk of read-modify-writes over 8 MiB). It does not depend on the program
// under test, so a run taken while the shared box was slow shows it here.
func refKernelMS() float64 {
	const words = 1 << 20
	const steps = 1 << 22
	if refBuf == nil {
		refBuf = make([]uint64, words)
	}
	buf := refBuf
	x := uint64(0x243f6a8885a308d3)
	start := time.Now()
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (words - 1)
		buf[j] += x
		x += buf[j]
	}
	refSink += x
	return float64(time.Since(start).Nanoseconds()) / 1e6
}
