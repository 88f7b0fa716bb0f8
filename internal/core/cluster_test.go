package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"smartflux/internal/durable"
	"smartflux/internal/kvstore"
	"smartflux/internal/kvstore/cluster"
)

// startCluster starts an in-process cluster for the test's lifetime.
func startCluster(t *testing.T, shards int, replicate bool) *cluster.Local {
	t.Helper()
	local, err := cluster.StartLocal(shards, replicate, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(local.Close)
	return local
}

// clusterClient opens a client over local's map, as each process of a run
// would.
func clusterClient(t *testing.T, local *cluster.Local) *cluster.Client {
	t.Helper()
	cc, err := cluster.New(cluster.Config{Map: local.Map})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cc.Close() })
	return cc
}

// requireMirrored asserts the cluster's merged dump — version histories and
// logical timestamps included — is bit-identical to the live store's, and
// returns it.
func requireMirrored(t *testing.T, cc *cluster.Client, live *kvstore.Store) []byte {
	t.Helper()
	want := live.Dump()
	if len(want) == 0 {
		t.Fatal("live store is empty; the workload wrote nothing")
	}
	got, err := cc.Dump(live.TableNames()...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("cluster dump differs from live store:\nlive:\n%scluster:\n%s", want, got)
	}
	return want
}

// TestPipelineMirrorsLiveStoreToCluster runs the full lifecycle with a
// 3-shard cluster attached and asserts the cluster's merged dump is
// bit-identical to the live instance's store, while the reference instance
// stays unmirrored.
func TestPipelineMirrorsLiveStoreToCluster(t *testing.T) {
	cc := clusterClient(t, startCluster(t, 3, false))
	res, err := RunPipeline(miniWorkload(), nil, PipelineConfig{
		TrainWaves: 40,
		ApplyWaves: 30,
		Session:    Config{Seed: 3, Thresholds: []float64{0.2}, PositiveWeight: 6},
		Cluster:    cc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Apply == nil || res.Apply.Waves != 30 {
		t.Fatalf("apply result: %+v", res.Apply)
	}
	requireMirrored(t, cc, res.Store)
}

// TestResumePipelineOnCluster crashes a mirrored durable run mid-application
// and resumes it — into a fresh cluster, which must receive the recovered
// state although replay notifies no observer, and into the surviving one,
// which holds the crashed wave's uncommitted writes and so is ahead of the
// recovered store. Either way the cluster ends bit-identical to the resumed
// live store and to an uncrashed run's.
func TestResumePipelineOnCluster(t *testing.T) {
	cfg := durablePipelineConfig()
	cfg.Cluster = clusterClient(t, startCluster(t, 2, true))
	plain, err := RunPipeline(miniWorkload(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	uncrashed := requireMirrored(t, cfg.Cluster, plain.Store)
	// Two waves from the end: every cell keeps three versions, so the
	// resumed waves alone cannot rewrite what recovery restored.
	crashWave := cfg.TrainWaves + cfg.ApplyWaves - 2

	for name, surviving := range map[string]bool{"fresh-cluster": false, "surviving-cluster": true} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			local := startCluster(t, 2, true)
			cfg.Cluster = clusterClient(t, local)
			crashInWave(t, cfg, dir, crashWave)

			if surviving {
				// The cluster must really be ahead: it holds more than
				// the store recovery rebuilds.
				rec, err := durable.Recover(dir, nil)
				if err != nil {
					t.Fatal(err)
				}
				recovered := kvstore.New()
				if err := rec.Apply(durableLiveStore, recovered); err != nil {
					t.Fatal(err)
				}
				ahead, err := cfg.Cluster.Dump(recovered.TableNames()...)
				if err != nil {
					t.Fatal(err)
				}
				if bytes.Equal(ahead, recovered.Dump()) {
					t.Fatal("the crashed run left the cluster level with the recovered store; nothing to reconcile")
				}
			} else {
				local = startCluster(t, 2, true)
			}
			cfg.Cluster = clusterClient(t, local)
			res, info, err := ResumePipeline(miniWorkload(), nil, cfg, DurableOptions{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if !info.Resumed || info.Recovery.Wave != crashWave {
				t.Fatalf("resumed=%v from wave %d", info.Resumed, info.Recovery.Wave)
			}
			equalPipelineResult(t, plain, res)
			if got := requireMirrored(t, cfg.Cluster, res.Store); !bytes.Equal(got, uncrashed) {
				t.Fatalf("resumed run's dump differs from the uncrashed run's:\nuncrashed:\n%sresumed:\n%s", uncrashed, got)
			}
		})
	}
}

// TestPipelineFailsWhenMirrorShipFails: a cluster that goes away mid-run
// cannot refuse the writes it misses — ships run inside store observers —
// so the pipeline must turn the client's recorded failure into its own.
func TestPipelineFailsWhenMirrorShipFails(t *testing.T) {
	local := startCluster(t, 2, true)
	// One quick probe per suspect: every ship after the close pays for it.
	cc, err := cluster.New(cluster.Config{Map: local.Map, ProbeRetries: 1, ProbeBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cc.Close() }()
	build := miniWorkloadOnWave(func(wave int) {
		if wave == 10 {
			local.Close()
		}
	})
	res, err := RunPipeline(build, nil, PipelineConfig{
		TrainWaves: 20,
		ApplyWaves: 5,
		Session:    Config{Seed: 3, Thresholds: []float64{0.2}, PositiveWeight: 6},
		Cluster:    cc,
	})
	if err == nil || res != nil {
		t.Fatalf("RunPipeline over a dead cluster = %v, %v; want an error and no result", res, err)
	}
	if cc.Err() == nil || !strings.Contains(err.Error(), cc.Err().Error()) || !strings.Contains(err.Error(), "cluster mirror") {
		t.Fatalf("error %q does not name the ship failure %v", err, cc.Err())
	}
}
