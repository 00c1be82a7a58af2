// Command hgedd is the HGED/HEP query daemon: it loads named hypergraphs
// once at startup and serves distance, σ, similarity-search and
// asynchronous HEP prediction queries over a JSON HTTP API.
//
// Usage:
//
//	hgedd [-addr :8080] [-load name=path.hg]... [-benson name=nverts,simplices[,labels]]...
//	      [-sync-limit N] [-workers N] [-queue N] [-request-timeout 30s] [-drain 30s]
//	      [-job-retention N] [-corpus-snapshot path.hgx] [-pprof addr]
//
// -corpus-snapshot persists the whole corpus and search index as one .hgx
// file. When the file matches the requested corpus the daemon cold-starts
// from it directly — graphs load straight into their frozen CSR form,
// nothing is parsed or rebuilt — and otherwise the graph files are loaded,
// the index built, and the snapshot rewritten for the next start (see GET
// /metrics, "snapshot" section).
//
// -job-retention caps how many finished (done/failed/cancelled) HEP jobs
// stay inspectable via GET /v1/jobs; the oldest terminal jobs are evicted
// first. Queued and running jobs are never evicted.
//
// -pprof starts a second HTTP listener serving net/http/pprof under
// /debug/pprof/ (empty = disabled). It is a separate listener so profiling
// endpoints are never exposed on the public API address.
//
// Graph files are selected by extension (.hg text, .json JSON); the Benson
// simplex format takes its two or three files comma-separated. On SIGINT
// or SIGTERM the daemon stops accepting requests, drains in-flight HEP
// jobs until the drain deadline, cancels the stragglers, and exits.
//
// See the README section "Running the server" for the endpoint reference
// with curl examples.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hged"
	"hged/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hgedd:", err)
		os.Exit(1)
	}
}

type loadSpec struct{ name, path string }

type bensonSpec struct {
	name  string
	files []string
}

func run() error {
	var (
		loads   []loadSpec
		bensons []bensonSpec
	)
	addr := flag.String("addr", ":8080", "listen address")
	syncLimit := flag.Int("sync-limit", 0, "max concurrent synchronous queries (0 = 2×GOMAXPROCS)")
	workers := flag.Int("workers", 2, "HEP job worker pool size")
	queue := flag.Int("queue", 16, "HEP job queue depth")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "synchronous request deadline")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline for in-flight jobs")
	maxUpload := flag.Int64("max-upload", 32<<20, "max graph upload body bytes")
	jobRetention := flag.Int("job-retention", 256, "finished HEP jobs kept for inspection (oldest evicted first)")
	corpusSnapshot := flag.String("corpus-snapshot", "", "corpus snapshot path (.hgx): cold-start from it when it matches the requested corpus, rebuild from the graph files and write it otherwise")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate address (empty = disabled)")
	flag.Func("load", "name=path: load a .hg or .json graph at startup (repeatable)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok {
			return fmt.Errorf("want name=path, got %q", v)
		}
		loads = append(loads, loadSpec{name, path})
		return nil
	})
	flag.Func("benson", "name=nverts,simplices[,labels]: load a Benson-format graph (repeatable)", func(v string) error {
		name, rest, ok := strings.Cut(v, "=")
		if !ok {
			return fmt.Errorf("want name=nverts,simplices[,labels], got %q", v)
		}
		files := strings.Split(rest, ",")
		if len(files) != 2 && len(files) != 3 {
			return fmt.Errorf("want two or three comma-separated files, got %q", rest)
		}
		bensons = append(bensons, bensonSpec{name, files})
		return nil
	})
	flag.Parse()

	logger := log.New(os.Stderr, "hgedd ", log.LstdFlags|log.Lmsgprefix)
	srv := server.New(server.Config{
		SyncLimit:      *syncLimit,
		RequestTimeout: *reqTimeout,
		Workers:        *workers,
		QueueDepth:     *queue,
		JobRetention:   *jobRetention,
		MaxUploadBytes: *maxUpload,
		Logger:         logger,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Cold-start from the corpus snapshot when it matches the requested
	// corpus: the graphs land directly in their CSR form and the search
	// index is built over them, so no file is parsed and no CSR view is
	// rebuilt.
	restored := false
	if *corpusSnapshot != "" {
		want := make([]string, 0, len(loads)+len(bensons))
		for _, l := range loads {
			want = append(want, l.name)
		}
		for _, b := range bensons {
			want = append(want, b.name)
		}
		if err := srv.LoadCorpusSnapshot(ctx, *corpusSnapshot, want); err != nil {
			logger.Printf("corpus snapshot %s unusable, loading graph files: %v", *corpusSnapshot, err)
		} else {
			restored = true
		}
	}
	if !restored {
		for _, l := range loads {
			e, err := srv.Registry().LoadFile(l.name, l.path)
			if err != nil {
				return err
			}
			logger.Printf("loaded graph %q from %s: %d nodes, %d hyperedges",
				e.Name, l.path, e.Stats().Nodes, e.Stats().Edges)
		}
		for _, b := range bensons {
			g, err := readBenson(b.files)
			if err != nil {
				return fmt.Errorf("graph %q: %w", b.name, err)
			}
			e, err := srv.Registry().Add(b.name, g, strings.Join(b.files, ","))
			if err != nil {
				return err
			}
			logger.Printf("loaded graph %q (benson): %d nodes, %d hyperedges",
				e.Name, e.Stats().Nodes, e.Stats().Edges)
		}

		if *corpusSnapshot != "" {
			if err := srv.SaveCorpusSnapshot(ctx, *corpusSnapshot); err != nil {
				logger.Printf("persisting corpus snapshot %s failed: %v", *corpusSnapshot, err)
			}
		}
	}

	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv := &http.Server{Addr: *pprofAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("pprof listener: %v", err)
			}
		}()
		logger.Printf("pprof on %s/debug/pprof/", *pprofAddr)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Printf("listening on %s with %d graphs", *addr, srv.Registry().Len())

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop()
	logger.Printf("shutting down: draining for up to %s", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := srv.Close(drainCtx); err != nil {
		logger.Printf("cancelled in-flight jobs past the drain deadline: %v", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Printf("bye")
	return nil
}

func readBenson(files []string) (*hged.Hypergraph, error) {
	nv, err := os.Open(files[0])
	if err != nil {
		return nil, err
	}
	defer nv.Close()
	sx, err := os.Open(files[1])
	if err != nil {
		return nil, err
	}
	defer sx.Close()
	if len(files) == 3 {
		lb, err := os.Open(files[2])
		if err != nil {
			return nil, err
		}
		defer lb.Close()
		return hged.ReadBenson(nv, sx, lb)
	}
	return hged.ReadBenson(nv, sx, nil)
}
