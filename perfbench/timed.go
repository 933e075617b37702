package main

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ghost-installer/gia/internal/serve"
)

// Headers carrying the traced run's per-request timings between the
// benchmark's client and its server-side decorator.
const (
	hdrRequestID = "X-Bench-Request"
	hdrServiceNS = "X-Bench-Service-Ns"
	hdrExecNS    = "X-Bench-Exec-Ns"
)

// timedService is the traced run's decorator around *serve.Fleet, passed
// to serve.NewHandler in its place. It times every Service call and hands
// the time (and the shard execution time the Fleet reports as WallNS)
// back to the client in response headers, so the client splits its round
// trip into HTTP (round trip − Service call), shard queue wait (Service
// call − WallNS) and execution (WallNS).
//
// Embedding *serve.Fleet forwards the capabilities the handler
// type-asserts (FlightSource, EventSource, SLOSource); without them
// /slo and /devices/{id}/trace would answer 404.
type timedService struct {
	*serve.Fleet
	tr *tracer

	// parents maps a request ID to the client span that sent it.
	parents sync.Map
	mu      sync.Mutex
	// pending holds, per operation key, the in-flight requests whose
	// Service call has not started, oldest first.
	pending map[string][]*pendingReq
	ops     map[string]*opTimes
}

var (
	_ serve.Service      = (*timedService)(nil)
	_ serve.FlightSource = (*timedService)(nil)
	_ serve.SLOSource    = (*timedService)(nil)
	_ serve.EventSource  = (*timedService)(nil)
)

// pendingReq links a request in the handler to its Service call.
type pendingReq struct {
	w      http.ResponseWriter
	id     int64
	parent span
}

// opTimes are the client-side splits of one operation's requests.
type opTimes struct{ http, service, queue, exec samples }

func newTimedService(f *serve.Fleet, tr *tracer) *timedService {
	t := &timedService{Fleet: f, tr: tr, pending: map[string][]*pendingReq{}, ops: map[string]*opTimes{}}
	for _, op := range serveOps {
		t.ops[op] = &opTimes{}
	}
	return t
}

// opKey names the Service call a request makes: "install/<id>",
// "attack/<id>", "get/<id>", "delete/<id>" or "create"; "" for the rest.
func opKey(r *http.Request) string {
	rest, ok := strings.CutPrefix(r.URL.Path, "/devices")
	if !ok {
		return ""
	}
	rest = strings.TrimPrefix(rest, "/")
	id, action, _ := strings.Cut(rest, "/")
	switch {
	case r.Method == http.MethodPost && rest == "":
		return "create"
	case id == "":
		return ""
	case r.Method == http.MethodGet && action == "":
		return "get/" + id
	case r.Method == http.MethodDelete && action == "":
		return "delete/" + id
	case r.Method == http.MethodPost && (action == "install" || action == "attack"):
		return action + "/" + id
	}
	return ""
}

// middleware wraps the handler: it registers each request with a Service
// call for the decorator and records a span around the handler.
func (t *timedService) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseInt(r.Header.Get(hdrRequestID), 10, 64)
		parent := root
		if p, ok := t.parents.Load(id); ok {
			parent = p.(span)
		}
		sp := t.tr.open("serve.http", id, lane(id), parent)
		key := opKey(r)
		var p *pendingReq
		if key != "" {
			p = &pendingReq{w: w, id: id, parent: sp}
			t.mu.Lock()
			t.pending[key] = append(t.pending[key], p)
			t.mu.Unlock()
		}
		next.ServeHTTP(w, r)
		sp.close()
		if p != nil {
			t.take(key, p)
		}
	})
}

// take removes p (or, with p nil, the oldest request) from key's queue.
func (t *timedService) take(key string, p *pendingReq) *pendingReq {
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.pending[key]
	for i, c := range q {
		if p == nil || c == p {
			t.pending[key] = append(q[:i:i], q[i+1:]...)
			if len(t.pending[key]) == 0 {
				delete(t.pending, key)
			}
			return c
		}
	}
	return nil
}

// call times one Service call made for the oldest pending request under
// key; wallNS is the shard execution time the call reported, if any.
func (t *timedService) call(op, key string, fn func() int64) {
	p := t.take(key, nil)
	parent, id := root, int64(0)
	if p != nil {
		parent, id = p.parent, p.id
	}
	sp := t.tr.open("serve."+op, id, lane(id), parent)
	t0 := time.Now()
	wallNS := fn()
	d := time.Since(t0)
	sp.close()
	if p != nil {
		h := p.w.Header()
		h.Set(hdrServiceNS, strconv.FormatInt(d.Nanoseconds(), 10))
		if wallNS > 0 {
			h.Set(hdrExecNS, strconv.FormatInt(wallNS, 10))
		}
	}
}

// lane spreads request spans over Chrome trace rows.
func lane(id int64) int { return int(id%64) + 1 }

func (t *timedService) CreateDevice(req serve.CreateDeviceRequest) (info serve.DeviceInfo, err error) {
	t.call("create", "create", func() int64 { info, err = t.Fleet.CreateDevice(req); return 0 })
	return info, err
}

func (t *timedService) Device(id string) (info serve.DeviceInfo, err error) {
	t.call("get", "get/"+id, func() int64 { info, err = t.Fleet.Device(id); return 0 })
	return info, err
}

func (t *timedService) DeleteDevice(id string) (err error) {
	t.call("delete", "delete/"+id, func() int64 { err = t.Fleet.DeleteDevice(id); return 0 })
	return err
}

func (t *timedService) Install(id string, req serve.InstallRequest) (res serve.InstallResult, err error) {
	t.call("install", "install/"+id, func() int64 { res, err = t.Fleet.Install(id, req); return res.WallNS })
	return res, err
}

func (t *timedService) Attack(id string, req serve.AttackRequest) (res serve.AttackResult, err error) {
	t.call("attack", "attack/"+id, func() int64 { res, err = t.Fleet.Attack(id, req); return res.WallNS })
	return res, err
}

// observe books one response's split on the client side.
func (t *timedService) observe(op string, res httpResult) {
	o := t.ops[op]
	if o == nil || res.serviceNS == 0 {
		return
	}
	o.http.add(time.Duration(res.rtNS - res.serviceNS))
	o.service.add(time.Duration(res.serviceNS))
	if res.execNS > 0 {
		o.queue.add(time.Duration(res.serviceNS - res.execNS))
		o.exec.add(time.Duration(res.execNS))
	}
}
