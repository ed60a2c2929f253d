package trace

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
)

// debugProgress is the Progress instance the expvar mirror reads. expvar
// names are process-global and Publish panics on duplicates, so the mirror
// is published once and indirects through this pointer; a later ServeDebug
// (tests, long-lived sessions) swaps the target instead of re-publishing.
var debugProgress atomic.Pointer[Progress]

var publishOnce sync.Once

// ServeDebug serves net/http/pprof profiles and expvar counters on addr
// (host:port; ":0" picks a free port). The expvar page (/debug/vars)
// includes "grapple.progress", a live mirror of p's snapshot — the counters
// the engine pushes into Progress at superstep boundaries — alongside the
// stdlib memstats. Returns the bound address and a stop function.
func ServeDebug(addr string, p *Progress) (bound string, stop func() error, err error) {
	debugProgress.Store(p)
	publishOnce.Do(func() {
		expvar.Publish("grapple.progress", expvar.Func(func() any {
			return debugProgress.Load().Snapshot()
		}))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Close, nil
}
