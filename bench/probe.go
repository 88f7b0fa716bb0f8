package main

import (
	"fmt"
	"sort"
	"time"

	"smartflux/internal/durable"
	"smartflux/internal/kvstore"
	"smartflux/internal/kvstore/kvnet"
	"smartflux/internal/kvstore/wire"
	"smartflux/internal/metric"
	"smartflux/internal/workflow"
)

// Probes time direct calls into single layer functions, after the traced
// phase, on inputs captured from that run. They split the engine's self time
// (which an outside tracer cannot see into) and the per-ship cost into the
// parts a layer optimisation would move.

// probeReps is how often a per-wave probe repeats; the median is reported.
const probeReps = 21

// probeCalls is the call count of the per-operation network probes.
const probeCalls = 1000

// medianOf times n calls fn(0) … fn(n-1) and returns the median duration; the
// first error stops it.
func medianOf(n int, fn func(i int) error) (time.Duration, error) {
	d := make([]time.Duration, n)
	for i := range d {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		d[i] = time.Since(t0)
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[n/2], nil
}

// medianWave is medianOf for a probe that repeats one wave's worth of
// infallible work probeReps times.
func medianWave(fn func()) time.Duration {
	d, _ := medianOf(probeReps, func(int) error { fn(); return nil })
	return d
}

// gatedInputs lists every gated step's input containers with the step's ι
// function and mode — what the engine snapshots and observes once per wave.
type gatedInput struct {
	container workflow.Container
	factory   metric.Factory
	mode      metric.Mode
}

func gatedInputs(wf *workflow.Workflow) ([]gatedInput, error) {
	gated, err := wf.GatedSteps()
	if err != nil {
		return nil, err
	}
	var out []gatedInput
	for _, id := range gated {
		step, err := wf.Step(id)
		if err != nil {
			return nil, err
		}
		factory, err := metric.Resolve(step.QoD.ImpactFunc)
		if err != nil {
			return nil, err
		}
		for _, c := range step.Inputs {
			out = append(out, gatedInput{container: c, factory: factory, mode: step.QoD.Mode})
		}
	}
	return out, nil
}

// snapshotAll is one wave's worth of ι reads: Container.Snapshot over every
// gated step's input containers.
func snapshotAll(inputs []gatedInput, store *kvstore.Store) []metric.State {
	states := make([]metric.State, len(inputs))
	for i, in := range inputs {
		states[i] = in.container.Snapshot(store)
	}
	return states
}

// probeSnapshot times snapshotAll on the final live store and counts the
// cells it scans.
func probeSnapshot(inputs []gatedInput, store *kvstore.Store) (perWave time.Duration, cells int) {
	for _, s := range snapshotAll(inputs, store) {
		cells += len(s)
	}
	return medianWave(func() { snapshotAll(inputs, store) }), cells
}

// probeObserve times one wave's worth of metric.Tracker.Observe calls: each
// tracker is primed with the mid-run snapshot as its baseline and then
// observes the end-of-run snapshot of the same container.
func probeObserve(inputs []gatedInput, mid, final []metric.State) time.Duration {
	return medianWave(func() {
		for i, in := range inputs {
			t := metric.NewTracker(in.factory, in.mode)
			t.Commit(mid[i])
			t.Observe(final[i])
		}
	})
}

// probeApply replays the captured wave's mutations into a scratch store, one
// Table.Apply per run of consecutive same-table mutations.
func probeApply(muts []kvstore.Mutation) (time.Duration, error) {
	type tableBatch struct {
		table string
		batch *kvstore.Batch
	}
	var batches []tableBatch
	for _, m := range muts {
		if n := len(batches); n == 0 || batches[n-1].table != m.Table {
			batches = append(batches, tableBatch{m.Table, kvstore.NewBatch()})
		}
		b := batches[len(batches)-1].batch
		if m.Kind == kvstore.MutationDelete {
			b.Delete(m.Row, m.Column)
		} else {
			b.Put(m.Row, m.Column, m.New)
		}
	}
	scratch := kvstore.New()
	return medianOf(probeReps, func(int) error {
		for _, tb := range batches {
			t, err := scratch.EnsureTable(tb.table, kvstore.TableOptions{})
			if err != nil {
				return err
			}
			if err := t.Apply(tb.batch); err != nil {
				return err
			}
		}
		return nil
	})
}

// probeWire encodes the captured wave's mutations as the replication requests
// the mirror ships (one record per frame) and decodes them back.
func probeWire(muts []kvstore.Mutation) (encode, decode time.Duration, bytes int, err error) {
	reqs := make([]wire.Request, len(muts))
	for i, m := range muts {
		reqs[i] = wire.Request{Op: wire.OpRepl, Seq: uint64(i), Epoch: 1,
			Records: [][]byte{durable.EncodeMutationRecord(m)}}
	}
	buf := wire.GetBuffer()
	defer buf.Release()
	encode = medianWave(func() {
		buf.Reset()
		for i := range reqs {
			wire.AppendRequest(buf, &reqs[i])
		}
	})
	frames := append([]byte(nil), buf.Bytes()...)
	decode, err = medianOf(probeReps, func(int) error {
		for rest := frames; len(rest) > 0; {
			h, err := wire.ParseHeader(rest)
			if err != nil {
				return err
			}
			end := wire.HeaderSize + int(h.Len)
			if _, err := wire.DecodeRequest(h, rest[wire.HeaderSize:end]); err != nil {
				return err
			}
			rest = rest[end:]
		}
		return nil
	})
	return encode, decode, len(frames), err
}

// probeRows are the row keys the network probes cycle through.
var probeRows = func() []string {
	rows := make([]string, 64)
	for i := range rows {
		rows[i] = fmt.Sprintf("r%d", i)
	}
	return rows
}()

// probeKVNet measures the transport floor: Ping and Put round trips against
// a bare kvnet.Server on loopback, no replication behind it.
func probeKVNet() (ping, put time.Duration, err error) {
	srv := kvnet.NewServer(kvstore.New())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()
	cl, err := kvnet.Dial(addr)
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	if err := cl.CreateTable("probe", 0); err != nil {
		return 0, 0, err
	}
	if ping, err = medianOf(probeCalls, func(int) error { return cl.Ping() }); err != nil {
		return 0, 0, err
	}
	value := kvstore.EncodeFloat(1)
	put, err = medianOf(probeCalls, func(i int) error { return cl.Put("probe", probeRows[i%len(probeRows)], "v", value) })
	return ping, put, err
}

// probeClusterPut measures a replicated write on the run's own rig: client →
// shard primary → replica, acked before Put returns.
func probeClusterPut(b *clusterBackend) (time.Duration, error) {
	if err := b.client.CreateTable("probe", 0); err != nil {
		return 0, err
	}
	value := kvstore.EncodeFloat(1)
	return medianOf(probeCalls, func(i int) error { return b.client.Put("probe", probeRows[i%len(probeRows)], "v", value) })
}
