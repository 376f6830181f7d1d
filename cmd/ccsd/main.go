// Command ccsd runs the cooperative-charging coordinator as a standalone
// daemon: it listens for device and charger agents (cmd/ccsnode), and
// once the expected population has registered it collects status, runs
// the chosen scheduler, dispatches charge commands, and prints the
// measured cost report.
//
// Usage (three terminals):
//
//	ccsd -listen 127.0.0.1:7465 -devices 2 -chargers 1 -scheduler CCSA
//	ccsnode -connect 127.0.0.1:7465 -role charger -id c1 -x 50 -y 50 -fee 5
//	ccsnode -connect 127.0.0.1:7465 -role device -id d1 -x 10 -y 10 -demand 120
//
// With -serve it instead answers newline-delimited JSON solve requests
// ({"instance": {...}, "scheduler": "CCSGA"}) over the same listener,
// memoizing solutions in a fingerprint-keyed LRU (see -cache-size and
// -cache-off). The service drains in-flight solves on SIGINT/SIGTERM,
// reaps idle connections (-conn-idle-timeout), and with -metrics-addr
// exposes /metrics, /healthz and net/http/pprof on an HTTP sidecar.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/testbed"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ccsd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ccsd", flag.ContinueOnError)
	var (
		listen       = fs.String("listen", "127.0.0.1:0", "listen address")
		devices      = fs.Int("devices", 1, "number of device agents to wait for")
		chargers     = fs.Int("chargers", 1, "number of charger agents to wait for")
		schedName    = fs.String("scheduler", "CCSA", "NONCOOP | CCSGA | CCSA | OPT")
		timeout      = fs.Duration("timeout", 60*time.Second, "registration timeout")
		workers      = fs.Int("workers", 0, "cap OS threads used for the scheduling solve, for daemons sharing a host (0 = all cores)")
		rpcTimeout   = fs.Duration("rpc-timeout", testbed.DefaultRPCTimeout, "per-RPC deadline on agent connections")
		maxRetries   = fs.Int("max-retries", testbed.DefaultMaxRetries, "extra attempts for idempotent agent RPCs")
		minQuorum    = fs.Int("min-quorum", 0, "proceed with a partial run if at least this many devices are responsive (0 = require all)")
		serve        = fs.Bool("serve", false, "run as a stateless solve service: newline-delimited JSON requests on -listen instead of the agent testbed")
		cacheSize    = fs.Int("cache-size", 1024, "solution cache capacity in entries for -serve mode")
		cacheOff     = fs.Bool("cache-off", false, "disable the solution cache in -serve mode")
		metricsAddr  = fs.String("metrics-addr", "", "also serve /metrics, /healthz and /debug/pprof on this address in -serve mode (empty = off)")
		connIdle     = fs.Duration("conn-idle-timeout", 3*time.Minute, "close a -serve connection idle for this long (0 = never)")
		maxSessions  = fs.Int("max-sessions", 1024, "cap live -serve sessions; LRU-evicted beyond it (0 = session protocol off)")
		sessionIdle  = fs.Duration("session-idle-timeout", 10*time.Minute, "expire a -serve session untouched for this long (0 = never)")
		tick         = fs.Duration("tick", 0, "coalesce -serve session deltas arriving within this window into one repair per session (0 = solve per request)")
		drainWait    = fs.Duration("drain-timeout", 10*time.Second, "on shutdown, wait this long for in-flight -serve requests before force-closing")
		slowSolve    = fs.Duration("slow-solve", time.Second, "log a slow_solve event for -serve requests slower than this (0 = off)")
		shardCell    = fs.Float64("shard-cell", 0, "in -serve mode, solve one-shot CCSGA requests cell-parallel with this spatial cell size in meters (0 = whole-field)")
		shardOverlap = fs.Float64("shard-overlap", 0, "halo width in meters shared between neighboring shard cells (needs -shard-cell)")
		shardWorkers = fs.Int("shard-workers", 0, "concurrent shard cell solves per request (0 = GOMAXPROCS; results are identical for every value)")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", *workers)
	}
	if *rpcTimeout <= 0 {
		return fmt.Errorf("-rpc-timeout must be > 0, got %v", *rpcTimeout)
	}
	if *maxRetries < 0 {
		return fmt.Errorf("-max-retries must be >= 0, got %d", *maxRetries)
	}
	if *minQuorum < 0 || *minQuorum > *devices {
		return fmt.Errorf("-min-quorum must be in [0, -devices], got %d", *minQuorum)
	}
	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}
	sched, err := schedulerByName(*schedName)
	if err != nil {
		return err
	}
	if *serve {
		if *connIdle < 0 {
			return fmt.Errorf("-conn-idle-timeout must be >= 0, got %v", *connIdle)
		}
		if *drainWait <= 0 {
			return fmt.Errorf("-drain-timeout must be > 0, got %v", *drainWait)
		}
		if *slowSolve < 0 {
			return fmt.Errorf("-slow-solve must be >= 0, got %v", *slowSolve)
		}
		if *maxSessions < 0 {
			return fmt.Errorf("-max-sessions must be >= 0, got %d", *maxSessions)
		}
		if *sessionIdle < 0 {
			return fmt.Errorf("-session-idle-timeout must be >= 0, got %v", *sessionIdle)
		}
		if *tick < 0 {
			return fmt.Errorf("-tick must be >= 0, got %v", *tick)
		}
		if *tick > 0 && *maxSessions == 0 {
			return fmt.Errorf("-tick needs the session protocol (-max-sessions > 0)")
		}
		if *shardCell < 0 {
			return fmt.Errorf("-shard-cell must be >= 0, got %v", *shardCell)
		}
		if *shardOverlap < 0 {
			return fmt.Errorf("-shard-overlap must be >= 0, got %v", *shardOverlap)
		}
		if *shardCell == 0 && (*shardOverlap != 0 || *shardWorkers != 0) {
			return fmt.Errorf("-shard-overlap and -shard-workers need -shard-cell > 0")
		}
		return runServe(serveConfig{
			listen:       *listen,
			cacheSize:    *cacheSize,
			cacheOff:     *cacheOff,
			metricsAddr:  *metricsAddr,
			idleTimeout:  *connIdle,
			drainTimeout: *drainWait,
			slowSolve:    *slowSolve,
			maxSessions:  *maxSessions,
			sessionTTL:   *sessionIdle,
			tick:         *tick,
			shardCell:    *shardCell,
			shardOverlap: *shardOverlap,
			shardWorkers: *shardWorkers,
		}, out)
	}

	cfg := testbed.Config{
		RPCTimeout: *rpcTimeout,
		MaxRetries: *maxRetries,
		MinQuorum:  *minQuorum,
	}
	if *maxRetries == 0 {
		cfg.MaxRetries = -1 // flag 0 means "no retries", not "default"
	}
	if *minQuorum == 0 {
		cfg.MinQuorum = *devices // require the full population
	}
	coord, err := testbed.NewCoordinatorConfig(*listen, *devices, *chargers, cfg)
	if err != nil {
		return err
	}
	defer func() { _ = coord.Close() }()
	fmt.Fprintf(out, "listening on %s (waiting for %d devices, %d chargers)\n",
		coord.Addr(), *devices, *chargers)

	if *minQuorum > 0 {
		if err := coord.WaitQuorum(*timeout); err != nil {
			return err
		}
		fmt.Fprintln(out, "quorum reached; collecting status")
	} else {
		if err := coord.WaitReady(*timeout); err != nil {
			return err
		}
		fmt.Fprintln(out, "all agents registered; collecting status")
	}

	in, excluded, err := coord.CollectInstanceDetail()
	if err != nil {
		return err
	}
	if len(excluded) > 0 {
		fmt.Fprintf(out, "excluded %d unresponsive device(s): %s\n",
			len(excluded), strings.Join(excluded, ", "))
	}
	cm, err := core.NewCostModel(in)
	if err != nil {
		return err
	}
	plan, err := sched.Schedule(cm)
	if err != nil {
		return err
	}
	if err := plan.Validate(len(in.Devices), len(in.Chargers)); err != nil {
		return err
	}
	fmt.Fprintf(out, "%s planned cost $%.2f across %d session(s)\n",
		sched.Name(), cm.TotalCost(plan), len(plan.Coalitions))

	rep, err := coord.ExecuteScheduleWith(in, plan, sched)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "executed: measured cost $%.2f (charging $%.2f + moving $%.2f), %d session(s), %.1f J stored\n",
		rep.MeasuredCost, rep.ChargingCost, rep.MovingCost, rep.Sessions, rep.EnergyStored)
	if len(rep.Failed) > 0 || rep.Rescheduled > 0 {
		fmt.Fprintf(out, "partial result: %d agent(s) failed mid-execution (%s), %d membership(s) rescheduled\n",
			len(rep.Failed), strings.Join(rep.Failed, ", "), rep.Rescheduled)
	}
	return nil
}
