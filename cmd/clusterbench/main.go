// Command clusterbench measures the sharded kvstore cluster (DESIGN.md §8):
// replicated write throughput at 1 vs 3 shards, the latency blip a
// health-checked failover injects when a primary is killed mid-run, and the
// (smaller) blip of a fenced failover when an asymmetric partition cuts a
// primary's replication link and it self-demotes mid-write (DESIGN.md §8).
// It writes a JSON report (BENCH_PR10.json).
//
//	clusterbench -out BENCH_PR10.json
//	clusterbench -smoke            # tiny op counts; harness correctness only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"time"

	"smartflux/internal/fault"
	"smartflux/internal/kvstore/cluster"
	"smartflux/internal/kvstore/kvnet"
)

// valueSize is the put payload size.
const valueSize = 128

type result struct {
	Name      string  `json:"name"`
	Shards    int     `json:"shards"`
	Ops       int     `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50Micros float64 `json:"p50_us"`
	P95Micros float64 `json:"p95_us"`
	P99Micros float64 `json:"p99_us"`
}

type failoverResult struct {
	Shards int `json:"shards"`
	Ops    int `json:"ops"`
	// KillAtOp is the op index after which the victim primary was cut off.
	KillAtOp  int     `json:"kill_at_op"`
	Failovers int     `json:"failovers"`
	OpsPerSec float64 `json:"ops_per_sec"`
	// BlipP99Millis is the p99 op latency across the run including the
	// failover window — the promotion's cost folded into the tail.
	BlipP99Millis float64 `json:"blip_p99_ms"`
	// BlipMaxMillis is the single slowest op: the one that paid for the
	// probe sequence and promotion itself.
	BlipMaxMillis float64 `json:"blip_max_ms"`
	// LostWrites is zero: every acked write survives the promotion, and the
	// cell fails when one does not (checkAcked).
	LostWrites int `json:"lost_writes"`
}

type partitionResult struct {
	Shards int `json:"shards"`
	Ops    int `json:"ops"`
	// CutAtOp is the op index after which the victim primary's replication
	// link was cut one-way (primary→replica); the primary self-demotes on
	// its next ship and the client promotes the replica without probing.
	CutAtOp         int     `json:"cut_at_op"`
	FencedFailovers int     `json:"fenced_failovers"`
	OpsPerSec       float64 `json:"ops_per_sec"`
	// BlipP99Millis is the p99 op latency including the fenced-failover
	// window. Unlike the probe-driven failover blip, no probe sequence runs:
	// the demotion rides back on the failed write itself.
	BlipP99Millis float64 `json:"blip_p99_ms"`
	BlipMaxMillis float64 `json:"blip_max_ms"`
	// LostWrites is zero: the un-acked in-flight write is re-shipped to the
	// promoted replica, every acked write survives, and the cell fails when
	// one does not (checkAcked).
	LostWrites int `json:"lost_writes"`
}

type report struct {
	GoVersion     string           `json:"go_version"`
	GOMAXPROCS    int              `json:"gomaxprocs"`
	NumCPU        int              `json:"num_cpu"`
	Note          string           `json:"note"`
	Benchmarks    []result         `json:"benchmarks"`
	Failover      *failoverResult  `json:"failover"`
	PartitionBlip *partitionResult `json:"partition_blip"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "clusterbench:", err)
		os.Exit(1)
	}
}

func run() error {
	smoke := flag.Bool("smoke", false, "tiny op counts: a correctness smoke for the bench harness, numbers meaningless")
	out := flag.String("out", "BENCH_PR10.json", "write the JSON report here")
	flag.Parse()

	ops := 20000
	if *smoke {
		ops = 400
	}

	rep := &report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Note: "replicated cluster puts (synchronous WAL-record shipping to followers); " +
			"failover run kills a primary mid-stream and folds the promotion blip into the tail; " +
			"partition-blip run cuts a primary's replication link one-way so it self-demotes " +
			"and the client fails over on the fencing rejection without probing",
	}
	for _, shards := range []int{1, 3} {
		res, err := benchPuts(shards, ops)
		if err != nil {
			return err
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
		fmt.Printf("%-20s %8.0f ops/sec   p50 %6.0fµs  p95 %6.0fµs  p99 %6.0fµs\n",
			res.Name, res.OpsPerSec, res.P50Micros, res.P95Micros, res.P99Micros)
	}
	fo, err := benchFailover(3, ops)
	if err != nil {
		return err
	}
	rep.Failover = fo
	fmt.Printf("%-20s %8.0f ops/sec   blip p99 %6.2fms  max %6.2fms  (%d failover, %d lost writes)\n",
		"failover-3shard", fo.OpsPerSec, fo.BlipP99Millis, fo.BlipMaxMillis, fo.Failovers, fo.LostWrites)
	pb, err := benchPartitionBlip(3, ops)
	if err != nil {
		return err
	}
	rep.PartitionBlip = pb
	fmt.Printf("%-20s %8.0f ops/sec   blip p99 %6.2fms  max %6.2fms  (%d fenced failover, %d lost writes)\n",
		"partition-3shard", pb.OpsPerSec, pb.BlipP99Millis, pb.BlipMaxMillis, pb.FencedFailovers, pb.LostWrites)

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// rig is a replicated in-process cluster plus its client.
type rig struct {
	*cluster.Local
	client *cluster.Client
	inj    *fault.Injector
}

// startRig builds shards primary+follower pairs. When faulty, the primaries'
// listeners and the client's dials run through a fault injector so a shard
// can be killed with a partition.
func startRig(shards int, faulty bool) (*rig, error) {
	r := &rig{}
	ccfg := cluster.Config{ProbeRetries: 1, ProbeBackoff: time.Millisecond}
	var node func(shard int, replica bool) (cluster.NodeConfig, error)
	if faulty {
		r.inj = fault.New(fault.Policy{})
		ccfg.Client.Dial = fault.Dialer(r.inj)
		node = func(_ int, replica bool) (cluster.NodeConfig, error) {
			if replica {
				return cluster.NodeConfig{}, nil
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return cluster.NodeConfig{}, err
			}
			return cluster.NodeConfig{
				Listener: fault.WrapListener(ln, r.inj),
				// Ship through the injector with the node's own source
				// identity, so a one-way link cut severs this primary's
				// replication path.
				Follower: kvnet.ClientConfig{Dial: fault.DialerFrom(r.inj, ln.Addr().String())},
			}, nil
		}
	}
	var err error
	if r.Local, err = cluster.StartLocal(shards, true, node); err != nil {
		return nil, err
	}
	ccfg.Map = r.Map
	if r.client, err = cluster.New(ccfg); err != nil {
		r.Local.Close()
		return nil, err
	}
	return r, nil
}

func (r *rig) close() {
	_ = r.client.Close() // teardown: the bench's result is already taken
	r.Local.Close()
}

// benchPuts times ops sequential replicated puts against a healthy cluster.
func benchPuts(shards, ops int) (result, error) {
	r, err := startRig(shards, false)
	if err != nil {
		return result{}, err
	}
	defer r.close()
	if err := r.client.CreateTable("bench", 1); err != nil {
		return result{}, err
	}
	value := make([]byte, valueSize)
	lat := make([]time.Duration, ops)
	start := time.Now()
	for i := 0; i < ops; i++ {
		opStart := time.Now()
		if err := r.client.Put("bench", fmt.Sprintf("row-%07d", i), "v", value); err != nil {
			return result{}, err
		}
		lat[i] = time.Since(opStart)
	}
	elapsed := time.Since(start)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return result{
		Name:      fmt.Sprintf("put-%dshard", shards),
		Shards:    shards,
		Ops:       ops,
		OpsPerSec: float64(ops) / elapsed.Seconds(),
		P50Micros: float64(lat[ops/2]) / float64(time.Microsecond),
		P95Micros: float64(lat[ops*95/100]) / float64(time.Microsecond),
		P99Micros: float64(lat[ops*99/100]) / float64(time.Microsecond),
	}, nil
}

// benchFailover kills one primary halfway through the op stream and measures
// the promotion's latency blip plus post-failover data integrity.
func benchFailover(shards, ops int) (*failoverResult, error) {
	r, err := startRig(shards, true)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.client.CreateTable("bench", 1); err != nil {
		return nil, err
	}
	value := make([]byte, valueSize)
	killAt := ops / 2
	failovers := 0
	lat := make([]time.Duration, ops)
	start := time.Now()
	for i := 0; i < ops; i++ {
		if i == killAt {
			r.inj.Partition(r.Primaries[0].Addr())
		}
		opStart := time.Now()
		if err := r.client.Put("bench", fmt.Sprintf("row-%07d", i), "v", value); err != nil {
			return nil, fmt.Errorf("put %d (across failover): %w", i, err)
		}
		lat[i] = time.Since(opStart)
	}
	elapsed := time.Since(start)
	if r.client.Map().Shards[0].Primary == r.Primaries[0].Addr() {
		// The victim never served a post-kill op (possible when the hash
		// sends no post-kill row its way) — force one so the report always
		// covers a promotion.
		if _, _, err := r.client.Get("bench", "row-0000000", "v"); err != nil {
			return nil, err
		}
	}
	m := r.client.Map()
	for s := range m.Shards {
		if m.Shards[s].Primary != r.Primaries[s].Addr() {
			failovers++
		}
	}
	if failovers == 0 {
		return nil, fmt.Errorf("primary kill never tripped a failover")
	}
	if err := checkAcked(r.client, ops); err != nil {
		return nil, err
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return &failoverResult{
		Shards:        shards,
		Ops:           ops,
		KillAtOp:      killAt,
		Failovers:     failovers,
		OpsPerSec:     float64(ops) / elapsed.Seconds(),
		BlipP99Millis: float64(lat[ops*99/100]) / float64(time.Millisecond),
		BlipMaxMillis: float64(lat[ops-1]) / float64(time.Millisecond),
	}, nil
}

// benchPartitionBlip cuts one primary's replication link one-way (the
// asymmetric partition: clients still reach it, its follower does not hear
// from it) halfway through the op stream. The primary self-demotes when its
// next synchronous ship fails; the fencing rejection rides back on the write
// itself, so the client promotes the replica without any probe sequence and
// re-acks the in-flight write there. The cell reports that fenced-failover
// blip next to the probe-driven one.
func benchPartitionBlip(shards, ops int) (*partitionResult, error) {
	r, err := startRig(shards, true)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.client.CreateTable("bench", 1); err != nil {
		return nil, err
	}
	value := make([]byte, valueSize)
	cutAt := ops / 2
	victim := r.Primaries[0].Addr()
	lat := make([]time.Duration, ops)
	start := time.Now()
	for i := 0; i < ops; i++ {
		if i == cutAt {
			r.inj.PartitionLink(victim, r.Followers[0].Addr())
		}
		opStart := time.Now()
		if err := r.client.Put("bench", fmt.Sprintf("row-%07d", i), "v", value); err != nil {
			return nil, fmt.Errorf("put %d (across link cut): %w", i, err)
		}
		lat[i] = time.Since(opStart)
	}
	elapsed := time.Since(start)
	// If no post-cut op happened to route to the victim shard, force writes
	// (outside the timed window) until one trips the fenced failover, so the
	// report always covers a promotion.
	for extra := 0; extra < 1000 && r.client.Map().Shards[0].Primary == victim; extra++ {
		if err := r.client.Put("bench", fmt.Sprintf("extra-%07d", extra), "v", value); err != nil {
			return nil, fmt.Errorf("forced put across link cut: %w", err)
		}
	}
	fenced := 0
	m := r.client.Map()
	for s := range m.Shards {
		if m.Shards[s].Primary != r.Primaries[s].Addr() {
			fenced++
		}
	}
	if fenced == 0 {
		return nil, fmt.Errorf("link cut never tripped a fenced failover")
	}
	if err := checkAcked(r.client, ops); err != nil {
		return nil, err
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return &partitionResult{
		Shards:          shards,
		Ops:             ops,
		CutAtOp:         cutAt,
		FencedFailovers: fenced,
		OpsPerSec:       float64(ops) / elapsed.Seconds(),
		BlipP99Millis:   float64(lat[ops*99/100]) / float64(time.Millisecond),
		BlipMaxMillis:   float64(lat[ops-1]) / float64(time.Millisecond),
	}, nil
}

// checkAcked reads back every (ops/200)-th acked row after a promotion and
// fails the cell if any is missing: every acked write must survive it.
func checkAcked(c *cluster.Client, ops int) error {
	lost, step := 0, max(ops/200, 1)
	for i := 0; i < ops; i += step {
		_, found, err := c.Get("bench", fmt.Sprintf("row-%07d", i), "v")
		if err != nil {
			return err
		}
		if !found {
			lost++
		}
	}
	if lost > 0 {
		return fmt.Errorf("%d of %d sampled acked writes lost across the promotion", lost, (ops+step-1)/step)
	}
	return nil
}
