package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
)

// freeUDPPorts reserves count distinct loopback UDP ports and releases them
// (the tiny reuse race is acceptable in a test).
func freeUDPPorts(t *testing.T, count int) []int {
	t.Helper()
	conns := make([]*net.UDPConn, count)
	ports := make([]int, count)
	for i := range conns {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		ports[i] = c.LocalAddr().(*net.UDPAddr).Port
	}
	for _, c := range conns {
		c.Close()
	}
	return ports
}

// TestDeploymentConverges drives five full gossipnode stacks — separate
// sockets, separate routing tables, nothing shared but flags — through the
// same run() the binary executes. Four join through the seed's address alone;
// all five must converge the rumor injected at node 0 and exit cleanly.
func TestDeploymentConverges(t *testing.T) {
	const n = 5
	ports := freeUDPPorts(t, n)
	seedAddr := fmt.Sprintf("127.0.0.1:%d", ports[0])

	outs := make([]*os.File, n)
	paths := make([]string, n)
	for i := range outs {
		f, err := os.CreateTemp(t.TempDir(), "gossipnode-*.log")
		if err != nil {
			t.Fatal(err)
		}
		outs[i], paths[i] = f, f.Name()
	}

	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		// Processes start in arbitrary order (a joiner's first ping can race
		// the seed's bind and be lost), so the RPC timeout is short — a lost
		// bootstrap cycle costs ~150ms — and the quiet window is long enough
		// (500 rounds × 2ms = 1s) that the deployment outlives the recovery.
		args := []string{
			"-n", fmt.Sprint(n),
			"-index", fmt.Sprint(i),
			"-seed", "7",
			"-bind", fmt.Sprintf("127.0.0.1:%d", ports[i]),
			"-interval", "2ms",
			"-linger", "500",
			"-rounds", "5000",
			"-rpc-timeout", "50ms",
		}
		if i == 0 {
			args = append(args, "-inject", "1")
		} else {
			args = append(args, "-bootstrap", seedAddr)
		}
		wg.Add(1)
		go func(i int, args []string) {
			defer wg.Done()
			errs[i] = run(args, outs[i])
		}(i, args)
	}
	wg.Wait()

	failed := false
	for i := 0; i < n; i++ {
		outs[i].Close()
		log, _ := os.ReadFile(paths[i])
		if errs[i] != nil {
			t.Errorf("node %d: %v", i, errs[i])
			failed = true
			continue
		}
		if !strings.Contains(string(log), "converged          YES") {
			t.Errorf("node %d report lacks convergence", i)
			failed = true
		}
	}
	if failed {
		for i := 0; i < n; i++ {
			log, _ := os.ReadFile(paths[i])
			t.Logf("---- node %d ----\n%s", i, log)
		}
	}
}

// TestBudgetExhaustedPrintsReportThenFails pins the exit contract: a node
// that cannot converge (it is the only process of a 2-node deployment and
// holds nothing) still prints its full report, and run() returns the
// budget-exhausted error afterwards.
func TestBudgetExhaustedPrintsReportThenFails(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "gossipnode-*.log")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ports := freeUDPPorts(t, 1)
	err = run([]string{
		"-n", "2", "-index", "0",
		"-bind", fmt.Sprintf("127.0.0.1:%d", ports[0]),
		"-rounds", "5", "-interval", "1ms",
	}, f)
	if err == nil || !strings.Contains(err.Error(), "convergence budget exhausted") {
		t.Fatalf("err = %v, want budget-exhausted", err)
	}
	log, _ := os.ReadFile(f.Name())
	for _, want := range []string{"converged          NO", "messages", "wall time"} {
		if !strings.Contains(string(log), want) {
			t.Errorf("report missing %q before the error:\n%s", want, log)
		}
	}
}

// TestMetricsEndpoint scrapes -metrics-addr while a lone node runs out its
// budget: /metrics is the registry's shared handler, Prometheus text with the
// same Content-Type every other endpoint of the repository serves. The node
// binds an ephemeral port and the test reads the address from its report.
func TestMetricsEndpoint(t *testing.T) {
	ports := freeUDPPorts(t, 1)
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	done := make(chan error, 1)
	go func() {
		err := run([]string{
			"-n", "2", "-index", "0",
			"-bind", fmt.Sprintf("127.0.0.1:%d", ports[0]),
			"-rounds", "1000", "-interval", "2ms",
			"-metrics-addr", "127.0.0.1:0",
		}, pw)
		pw.Close()
		done <- err
	}()
	const prefix = "metrics            serving /metrics on "
	var url string
	sc := bufio.NewScanner(pr)
	for url == "" && sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			url = line + "/metrics"
		}
	}
	go io.Copy(io.Discard, pr)
	if url == "" {
		t.Fatalf("run printed no metrics address: %v", <-done)
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d", resp.StatusCode)
	}
	if ct, want := resp.Header.Get("Content-Type"), "text/plain; version=0.0.4; charset=utf-8"; ct != want {
		t.Errorf("Content-Type %q, want %q", ct, want)
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "convergence budget exhausted") {
		t.Errorf("err = %v, want budget-exhausted", err)
	}
}

// TestFlagValidation: everything a flag alone can get wrong is reported
// before a socket is opened. Every row binds the port the test itself holds,
// so a run that got as far as binding would fail with the bind error instead
// of naming the flag.
func TestFlagValidation(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	held, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	for _, row := range []struct {
		args []string
		want string // the flag the error names
	}{
		{nil, "-n"},
		{[]string{"-n", "5"}, "-index"},
		{[]string{"-n", "5", "-index", "9"}, "-index"},
		{[]string{"-n", "1", "-index", "0"}, "-n"},
		{[]string{"-n", "5", "-index", "0", "-expect", "0"}, "-expect"},
		{[]string{"-n", "5", "-index", "0", "-algo", "bogus"}, "-algo"},
		{[]string{"-n", "5", "-index", "0", "-inject", "2", "-expect", "1"}, "-inject"},
	} {
		args := append([]string{"-bind", held.LocalAddr().String()}, row.args...)
		if err := run(args, devnull); err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("run(%v) = %v, want an error naming %s", row.args, err, row.want)
		}
	}
}
