package sim

// ResourceObserver receives the full queue-wait/service timing of every
// completed request on a Resource. The observability layer uses it to feed
// wait and service histograms and to emit per-server trace spans; the
// resource itself pays only a nil check when no observer is set.
type ResourceObserver interface {
	// ResourceRequest is called when a request finishes service, with the
	// virtual times it was enqueued, started service, and ended.
	ResourceRequest(r *Resource, server int, enqueued, started, ended Time)
}

// Resource models a pool of identical FCFS servers (query processors,
// page-table processors, an interconnect). Requests queue in arrival order;
// each request holds one server for its service time and then runs its
// completion callback.
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	busy     int
	queue    []resourceReq

	busyTW  *TimeWeighted // number of busy servers over time
	queueTW *TimeWeighted // queued (not yet in service) requests over time
	served  int64
	busyAcc Time  // total server-busy time (sum over servers)
	freeIDs []int // stack of idle server indices
	obs     ResourceObserver
}

type resourceReq struct {
	service func() Time // evaluated when service begins
	done    func(server int)
	enq     Time // virtual time the request was enqueued
}

// NewResource returns a resource with the given server count.
func NewResource(eng *Engine, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	r := &Resource{
		eng:      eng,
		name:     name,
		capacity: capacity,
		busyTW:   NewTimeWeighted(eng),
		queueTW:  NewTimeWeighted(eng),
		freeIDs:  make([]int, capacity),
	}
	for i := range r.freeIDs {
		r.freeIDs[i] = i
	}
	return r
}

// Name reports the resource's name.
func (r *Resource) Name() string { return r.name }

// Capacity reports the number of servers.
func (r *Resource) Capacity() int { return r.capacity }

// QueueLen reports the number of waiting (not in service) requests.
func (r *Resource) QueueLen() int { return len(r.queue) }

// Served reports the number of completed requests.
func (r *Resource) Served() int64 { return r.served }

// SetObserver installs the request observer (nil removes it).
func (r *Resource) SetObserver(o ResourceObserver) { r.obs = o }

// BusyTW exposes the busy-server tracker so a metrics registry can adopt
// it as a gauge.
func (r *Resource) BusyTW() *TimeWeighted { return r.busyTW }

// QueueTW exposes the queue-length tracker so a metrics registry can adopt
// it as a gauge.
func (r *Resource) QueueTW() *TimeWeighted { return r.queueTW }

// Request enqueues a job with a fixed service time; done runs at completion.
func (r *Resource) Request(service Time, done func()) {
	r.RequestFn(func() Time { return service }, done)
}

// RequestFn enqueues a job whose service time is computed when a server
// dispatches it (needed when service time depends on state at dispatch, such
// as a disk head position).
func (r *Resource) RequestFn(service func() Time, done func()) {
	var wrapped func(int)
	if done != nil {
		wrapped = func(int) { done() }
	}
	r.enqueue(resourceReq{service: service, done: wrapped})
}

// RequestServer is like Request but reports which server (0..capacity-1)
// executed the job; models use this to identify the query processor that
// performed an update.
func (r *Resource) RequestServer(service Time, done func(server int)) {
	r.enqueue(resourceReq{service: func() Time { return service }, done: done})
}

func (r *Resource) enqueue(req resourceReq) {
	req.enq = r.eng.Now()
	if r.busy < r.capacity {
		r.start(req)
		return
	}
	r.queue = append(r.queue, req)
	r.queueTW.Set(float64(len(r.queue)))
}

func (r *Resource) start(req resourceReq) {
	r.busy++
	r.busyTW.Set(float64(r.busy))
	server := r.freeIDs[len(r.freeIDs)-1]
	r.freeIDs = r.freeIDs[:len(r.freeIDs)-1]
	started := r.eng.Now()
	svc := req.service()
	if svc < 0 {
		panic("sim: negative service time")
	}
	r.busyAcc += svc
	r.eng.After(svc, func() {
		r.busy--
		r.busyTW.Set(float64(r.busy))
		r.freeIDs = append(r.freeIDs, server)
		r.served++
		if len(r.queue) > 0 {
			next := r.queue[0]
			r.queue = r.queue[1:]
			r.queueTW.Set(float64(len(r.queue)))
			r.start(next)
		}
		if r.obs != nil {
			r.obs.ResourceRequest(r, server, req.enq, started, r.eng.Now())
		}
		if req.done != nil {
			req.done(server)
		}
	})
}

// Utilization reports the time-weighted fraction of servers that were busy,
// in [0, 1].
func (r *Resource) Utilization() float64 {
	return r.busyTW.Mean() / float64(r.capacity)
}

// MeanQueue reports the time-weighted mean number of waiting requests.
func (r *Resource) MeanQueue() float64 { return r.queueTW.Mean() }

// BusyTime reports accumulated server-busy time across all servers.
func (r *Resource) BusyTime() Time { return r.busyAcc }
