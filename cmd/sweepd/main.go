// Command sweepd serves simulations: one long-lived process owning a
// single runq pool — shared trace programs, warm-checkpoint store,
// content-addressed result cache — behind a versioned JSON
// HTTP API, so any number of experiment clients share one set of
// caches instead of each rebuilding its own.
//
// Submissions are idempotent on the job's content-addressed key:
// concurrent clients asking for the same configuration coalesce onto
// one in-flight execution, and anyone arriving later replays the
// finished result. Reports rendered from remote results are
// byte-identical to local runs (check.sh gates on it).
//
// Examples:
//
//	sweepd -addr 127.0.0.1:8344 -cache-dir ~/.cache/ucp -ckpt-dir ~/.cache/ucp-ckpt
//	experiments -all -server http://127.0.0.1:8344
//	ucpsim -trace all -ucp -server http://127.0.0.1:8344
//	curl -s http://127.0.0.1:8344/v1/statz | jq .
//
// SIGINT/SIGTERM drain gracefully: new submissions are refused with
// 503, queued and in-flight jobs finish (landing in the caches), and
// open event streams see their terminal events before the listener
// closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ucp/internal/buildinfo"
	"ucp/internal/runq"
	"ucp/internal/sweepd"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8344", "listen address")
		jobs     = flag.Int("jobs", 0, "concurrently executing simulations (default GOMAXPROCS)")
		queue    = flag.Int("queue", 256, "admitted-but-not-executing job bound; past it submissions get 503 + Retry-After")
		cacheDir = flag.String("cache-dir", "", "content-addressed result cache directory (empty: in-memory memo only)")
		ckptDir  = flag.String("ckpt-dir", "", "warm-checkpoint store directory for sampled and time-parallel jobs (empty: in-memory store)")
		ckptMax  = flag.Int64("ckpt-max-bytes", 0, "on-disk checkpoint budget; past it the least-recently-verified blobs are pruned (0: unbounded)")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-request deadline on non-streaming endpoints")
		retry    = flag.Duration("retry-after", 2*time.Second, "Retry-After hint sent with 503 backpressure")
		quiet    = flag.Bool("quiet", false, "suppress per-job lifecycle log lines")
		version  = flag.Bool("version", false, "print model/schema/protocol versions and exit")
	)
	flag.Parse()

	if *version {
		buildinfo.Fprint(os.Stdout, "sweepd")
		return
	}

	start := time.Now() //ucplint:ignore wallclock
	cfg := sweepd.Config{
		Pool: runq.Options{
			Workers:      *jobs,
			CacheDir:     *cacheDir,
			Checkpoints:  true,
			CkptDir:      *ckptDir,
			CkptMaxBytes: *ckptMax,
			CkptNow:      func() int64 { return time.Now().UnixNano() }, //ucplint:ignore wallclock // checkpoint-pruning recency clock, injected only at the edge
		},
		QueueDepth:     *queue,
		Executors:      *jobs,
		RequestTimeout: *timeout,
		RetryAfter:     *retry,
		Clock: func() time.Duration {
			return time.Since(start) //ucplint:ignore wallclock
		},
	}
	if !*quiet {
		cfg.Log = os.Stderr
	}
	srv := sweepd.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweepd: %v\n", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	// The resolved address, not the flag: with -addr 127.0.0.1:0 this
	// line is how scripts learn the picked port.
	fmt.Fprintf(os.Stderr, "sweepd: listening on %s\n", ln.Addr())

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "sweepd: %v\n", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "sweepd: %v — draining\n", sig)
	}

	// Drain the job queue first (in-flight work finishes, streams see
	// their terminal events), then close the HTTP listener.
	cancel := make(chan struct{})
	go func() {
		<-sigc // a second signal aborts the drain
		close(cancel)
	}()
	if err := srv.Shutdown(cancel); err != nil {
		fmt.Fprintf(os.Stderr, "sweepd: %v\n", err)
	}
	ctx, stop := context.WithTimeout(context.Background(), 5*time.Second)
	defer stop()
	hs.Shutdown(ctx)
	fmt.Fprintln(os.Stderr, "sweepd: bye")
}
