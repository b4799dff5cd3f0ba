// Command gossipnode runs ONE gossip node as its own OS process — the
// multi-process deployment the in-process meshes simulate. Each process owns
// one UDP socket carrying both membership RPCs (Kademlia-style discovery,
// internal/membership) and gossip frames (internal/live wire codec); peers
// are found through the routing table, never through a shared node list.
//
// All processes of one deployment agree on (-n, -seed, -expect): that pair
// derives the identical node-ID directory everywhere, so the only runtime
// knowledge a process needs is its own index and one bootstrap address.
// The seed process (index 0 by convention) just listens:
//
//	gossipnode -n 5 -index 0 -bind :4001 -announce node0:4001 -inject 1
//
// every other process joins through it and free-runs to convergence:
//
//	gossipnode -n 5 -index 3 -bind :4001 -announce node3:4001 -bootstrap node0:4001
//
// The process exits 0 once its node held every -expect rumor (and lingered
// -linger rounds so stragglers could still pull from it); a run that
// exhausts -rounds first prints its full report and then exits nonzero.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/live"
	"repro/internal/membership"
	"repro/internal/phonecall"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gossipnode:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("gossipnode", flag.ContinueOnError)
	n := fs.Int("n", 0, "deployment size: total nodes across all processes (required, shared)")
	index := fs.Int("index", -1, "this process's node index in [0,n) (required)")
	seed := fs.Uint64("seed", 1, "shared execution seed (defines the ID directory and contact sequence)")
	bind := fs.String("bind", "0.0.0.0:4001", "UDP listen address for gossip + membership")
	announce := fs.String("announce", "", "address peers reach this node at (default: derived from -bind; set it whenever the bind host is not what peers see)")
	bootstrap := fs.String("bootstrap", "", "seed node address to join through (empty = this IS the seed: just listen)")
	bootTimeout := fs.Duration("bootstrap-timeout", 60*time.Second, "give up joining after this long")
	algo := fs.String("algo", "", "gossip protocol: push, pull, push-pull (default push-pull, shared)")
	rounds := fs.Int("rounds", 0, "local round budget (0 = derived from n)")
	interval := fs.Duration("interval", 20*time.Millisecond, "local round pace")
	linger := fs.Int("linger", 0, "rounds to keep gossiping after convergence (0 = default)")
	inject := fs.Uint64("inject", 0, "rumor bitmask seeded at this node (usually nonzero on exactly one process)")
	expect := fs.Uint64("expect", 1, "rumor bitmask the deployment spreads; convergence = holding all of it (shared)")
	k := fs.Int("k", 0, "membership bucket capacity / lookup width (0 = default)")
	alpha := fs.Int("alpha", 0, "membership lookup parallelism (0 = default)")
	rpcTimeout := fs.Duration("rpc-timeout", 0, "membership per-attempt RPC timeout (0 = default)")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus /metrics on this address while running")
	verbose := fs.Bool("v", false, "log membership and convergence progress to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 2 {
		return fmt.Errorf("-n is required (>= 2, shared across the deployment)")
	}
	if *index < 0 || *index >= *n {
		return fmt.Errorf("-index is required (in [0,%d))", *n)
	}
	// What a flag alone gets wrong is rejected before the socket is bound.
	algorithm, err := scenario.Algorithm(*algo).OrDefault()
	if err != nil {
		return fmt.Errorf("-algo: %w", err)
	}
	if *expect == 0 {
		return fmt.Errorf("-expect needs a nonzero rumor mask")
	}
	if *inject&^*expect != 0 {
		return fmt.Errorf("-inject %#x names rumors outside -expect %#x", *inject, *expect)
	}
	budget := *rounds
	if budget == 0 {
		// Generous: O(log n) spreading plus headroom for discovery warmup and
		// container start skew.
		budget = 200
		for m := *n; m > 1; m /= 2 {
			budget += 40
		}
	}
	var logf func(string, ...any)
	if *verbose {
		logf = func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	}

	reg := telemetry.NewRegistry()
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(out, "metrics            serving /metrics on http://%s\n", ln.Addr())
	}

	// The shared directory every process derives identically — IDs only, no
	// addresses. Addresses are what the membership layer discovers.
	pnet, err := phonecall.New(phonecall.Config{N: *n, Seed: *seed, Workers: 1})
	if err != nil {
		return err
	}
	tr, err := live.NewPeerTransport(live.PeerTransportConfig{
		N: *n, Self: *index, IDs: live.PeerIDs(pnet),
		Membership: membership.Config{
			Bind:       *bind,
			Announce:   *announce,
			K:          *k,
			Alpha:      *alpha,
			RPCTimeout: *rpcTimeout,
			Telemetry:  reg,
			Logf:       logf,
		},
	})
	if err != nil {
		return err
	}
	defer tr.Close()
	self := tr.Membership().Self()
	fmt.Fprintf(out, "gossipnode         node %d/%d, id %016x\n", *index, *n, uint64(self.ID))
	fmt.Fprintf(out, "listening          %s (announcing %s)\n", tr.Membership().BindAddr(), self.Addr)

	if *bootstrap != "" {
		ctx, cancel := context.WithTimeout(context.Background(), *bootTimeout)
		err := tr.Membership().Bootstrap(ctx, *bootstrap)
		cancel()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "bootstrap          joined via %s (%d contacts in table)\n",
			*bootstrap, tr.Membership().Table().Len())
	} else {
		fmt.Fprintf(out, "bootstrap          none: acting as the deployment's seed node\n")
	}

	pn, err := live.NewPeerNode(live.PeerConfig{
		N: *n, Index: *index, Seed: *seed,
		Rounds:    budget,
		Interval:  *interval,
		Linger:    *linger,
		Algorithm: algorithm,
		Inject:    *inject,
		Expect:    *expect,
		Transport: tr,
		Telemetry: reg,
		Logf:      logf,
	})
	if err != nil {
		return err
	}
	res, runErr := pn.Run(context.Background())
	held := pn.Held()

	// The report always prints in full — converged or not — before any error
	// decides the exit code.
	fmt.Fprintf(out, "gossip             %s, %d local rounds run of %d budgeted (%v pace)\n",
		res.Algorithm, res.Rounds, budget, *interval)
	if res.AllInformed {
		fmt.Fprintf(out, "converged          YES at local round %d (held %#x)\n", res.CompletionRound, held)
	} else {
		fmt.Fprintf(out, "converged          NO: held %#x of expected %#x\n", held, *expect)
	}
	fmt.Fprintf(out, "messages           %d payload + %d control\n", res.Messages, res.ControlMessages)
	fmt.Fprintf(out, "bits               %d\n", res.Bits)
	fmt.Fprintf(out, "max comms/round Δ  %d\n", res.MaxCommsPerRound)
	fmt.Fprintf(out, "discovery          %d routing-table contacts, %d sends dropped on table misses\n",
		tr.Membership().Table().Len(), tr.Misses())
	if res.SendFailures > 0 {
		fmt.Fprintf(out, "send failures      %d frames not handed to the OS\n", res.SendFailures)
	}
	fmt.Fprintf(out, "wall time          %v\n", res.Wall.Round(time.Millisecond))
	if runErr != nil {
		return runErr
	}
	if !res.AllInformed {
		return fmt.Errorf("convergence budget exhausted: held %#x of expected %#x after %d rounds", held, *expect, res.Rounds)
	}
	return nil
}
