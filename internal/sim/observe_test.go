package sim

import "testing"

type recordedReq struct {
	server                   int
	enqueued, started, ended Time
}

type recordingObserver struct{ reqs []recordedReq }

func (o *recordingObserver) ResourceRequest(r *Resource, server int, enqueued, started, ended Time) {
	o.reqs = append(o.reqs, recordedReq{server, enqueued, started, ended})
}

func TestResourceObserverQueueAndService(t *testing.T) {
	eng := New()
	r := NewResource(eng, "srv", 1)
	o := &recordingObserver{}
	r.SetObserver(o)
	// Two requests at t=0 on a single server: the second waits for the
	// first to finish.
	eng.At(0, func() {
		r.Request(100, func() {})
		r.Request(50, func() {})
	})
	eng.Run()
	if len(o.reqs) != 2 {
		t.Fatalf("observer saw %d requests, want 2", len(o.reqs))
	}
	first, second := o.reqs[0], o.reqs[1]
	if first.enqueued != 0 || first.started != 0 || first.ended != 100 {
		t.Errorf("first request enq/start/end = %v/%v/%v, want 0/0/100",
			first.enqueued, first.started, first.ended)
	}
	if second.enqueued != 0 || second.started != 100 || second.ended != 150 {
		t.Errorf("second request enq/start/end = %v/%v/%v, want 0/100/150",
			second.enqueued, second.started, second.ended)
	}
	if first.server != second.server {
		t.Errorf("single-server resource reported servers %d and %d", first.server, second.server)
	}
}

func TestResourceObserverParallelServers(t *testing.T) {
	eng := New()
	r := NewResource(eng, "srv", 2)
	o := &recordingObserver{}
	r.SetObserver(o)
	eng.At(0, func() {
		r.Request(100, func() {})
		r.Request(100, func() {})
	})
	eng.Run()
	if len(o.reqs) != 2 {
		t.Fatalf("observer saw %d requests, want 2", len(o.reqs))
	}
	for i, req := range o.reqs {
		if req.started != 0 || req.ended != 100 {
			t.Errorf("request %d start/end = %v/%v, want 0/100 (no queueing)", i, req.started, req.ended)
		}
	}
	if o.reqs[0].server == o.reqs[1].server {
		t.Error("two concurrent requests share a server")
	}
}

func TestSeriesMean(t *testing.T) {
	if got := SeriesMean(nil); got != 0 {
		t.Errorf("SeriesMean(nil) = %v, want 0", got)
	}
	if got := SeriesMean([]float64{2, 4, 9}); got != 5 {
		t.Errorf("SeriesMean = %v, want 5", got)
	}
}
