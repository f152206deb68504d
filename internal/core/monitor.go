package core

import (
	"net"
	"net/http"
	"time"

	"repro/internal/obs"
)

// The runtime side of the live monitor: Config.MonitorAddr starts an HTTP
// server for the duration of the run, serving obs.Monitor's endpoints over
// the run's metrics registry and the wait registry.  The wait registry is
// the same lock-free slot array the watchdog scans, so /ranks works exactly
// when it matters most — while the program is hung.

// monitorServer holds the running monitor's listener so the bound address
// survives ":0" and the server can be shut down when the run ends.
type monitorServer struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// startMonitor binds Config.MonitorAddr and serves the monitor endpoints.
// It runs before the rank goroutines launch (the wait slots already exist),
// so a scrape can never observe a half-built registry.
func (rt *Runtime) startMonitor() error {
	ln, err := net.Listen("tcp", rt.cfg.MonitorAddr)
	if err != nil {
		return err
	}
	mon := obs.NewMonitor(rt.cfg.Metrics, rt.RankStates)
	mon.SetLinks(rt.LinkStates)
	ms := &monitorServer{
		ln:   ln,
		srv:  &http.Server{Handler: mon.Handler()},
		done: make(chan struct{}),
	}
	go func() {
		defer close(ms.done)
		ms.srv.Serve(ln) // returns once the listener closes
	}()
	rt.mon = ms
	return nil
}

// stopMonitor tears the server down; it runs after every rank has returned.
func (rt *Runtime) stopMonitor() {
	if rt.mon == nil {
		return
	}
	rt.mon.srv.Close()
	<-rt.mon.done
}

// MonitorAddr returns the monitor's bound listen address ("" when no monitor
// is running).  With Config.MonitorAddr ":0" this is how callers learn the
// picked port.
func (rt *Runtime) MonitorAddr() string {
	if rt.mon == nil {
		return ""
	}
	return rt.mon.ln.Addr().String()
}

// MonitorAddr returns the run's live-monitor address ("" when disabled).
// With Config.MonitorAddr ":0" this is how a program learns which port the
// monitor picked.
func (r *Rank) MonitorAddr() string { return r.rt.MonitorAddr() }

// RankStates renders the wait registry as the monitor's /ranks view.  It is
// safe to call from any goroutine at any time: every slot field is atomic
// and published records are immutable.
func (rt *Runtime) RankStates() []obs.RankState {
	now := time.Now()
	out := make([]obs.RankState, len(rt.waitSlots))
	for id := range rt.waitSlots {
		s := &rt.waitSlots[id]
		st := obs.RankState{Rank: id, State: "running"}
		switch {
		case s.unwound.Load():
			st.State = "unwound"
		case s.done.Load():
			st.State = "done"
		default:
			if w := s.waiting.Load(); w != nil {
				st.State = "blocked"
				st.Wait = &obs.WaitState{
					Kind:      w.Kind.String(),
					Peer:      w.Peer,
					Tag:       w.Tag,
					Comm:      w.Comm,
					Seq:       w.Seq,
					Op:        w.Op,
					BlockedNs: int64(now.Sub(w.Since)),
				}
			}
		}
		out[id] = st
	}
	return out
}
