package main

import (
	"encoding/binary"
	"errors"
	"fmt"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/rds"
	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
)

// kv-rw: closed-loop clients calling the blocking Get/Put of the rds hash
// table on the adaptive backend, over a prepopulated key set with Zipf
// popularity.
const (
	kvClients     = 16
	kvClientHosts = 4
	kvKeys        = 512
	kvTheta       = 0.99
	kvPutFrac     = 0.20
	kvValSize     = 32
	// kvServerWork is the server CPU charge per RPC-served op, which the
	// one-sided path avoids.
	kvServerWork = 2 * sim.Microsecond
	kvWarmup     = 200 * sim.Microsecond
	kvWindow     = 4 * sim.Millisecond
	kvDrain      = sim.Millisecond
)

// kvState aggregates the kv-rw clients' accounting. The simulation is
// cooperatively scheduled, so clients update it directly.
type kvState struct {
	traced  bool
	running int
	err     error

	ops, gets, puts   uint64 // completed, whole run
	attempted, failed uint64 // measured window
	lat, getLat       *stats.Histogram
	putLat            *stats.Histogram
	spans             []span
}

func (st *kvState) fail(format string, args ...any) {
	if st.err == nil {
		st.err = fmt.Errorf(format, args...)
	}
}

func runKV(seed uint64, ph *phase) (*outcome, error) {
	ccfg := cluster.Default(1 + kvClientHosts)
	ccfg.Seed = seed
	c := cluster.New(ccfg)
	defer c.Close()
	lay := rds.Layout{Buckets: 1024, SlotsPerBucket: 4, ValSize: kvValSize, QueueCap: 64}
	d := rds.Deploy(c, rds.Config{ServerHost: 0, Layout: lay, ServerWork: kvServerWork})
	if err := prepopulate(d, kvKeys); err != nil {
		return nil, err
	}

	st := &kvState{traced: ph.traced, lat: stats.NewHistogram(), getLat: stats.NewHistogram(), putLat: stats.NewHistogram()}
	horizon := kvWarmup + kvWindow
	rng := stats.NewRNG(seed ^ 0x6a09e667f3bcc909)
	for i := 0; i < kvClients; i++ {
		ch := c.Hosts[1+i%kvClientHosts]
		cl := d.NewClient(rds.KindAdaptive, ch, sim.NewSignal(c.Env))
		crng := rng.Split()
		keys := stats.NewZipf(crng.Split(), kvKeys, kvTheta)
		id := uint64(i)
		st.running++
		ch.Spawn(fmt.Sprintf("kv%d", i), func(t *host.Thread) {
			st.client(t, id, cl, crng, keys, horizon)
			st.running--
		})
	}
	if err := ph.runUntil(c.Env, horizon+kvDrain); err != nil {
		return nil, err
	}
	if st.err != nil {
		return nil, st.err
	}
	if st.running != 0 {
		return nil, fmt.Errorf("%d kv clients still running at the drain deadline", st.running)
	}

	out := &outcome{
		virt: virtual{
			Lat:       st.lat,
			Window:    kvWindow,
			Attempted: st.attempted,
			Failed:    st.failed,
		},
		ops:   st.ops,
		spans: st.spans,
	}
	m := clusterLayers(c, []int{0}, st.ops)
	m["rds.get_p50_us"] = float64(st.getLat.Quantile(0.5)) / 1e3
	m["rds.get_p99_us"] = float64(st.getLat.Quantile(0.99)) / 1e3
	m["rds.put_p99_us"] = float64(st.putLat.Quantile(0.99)) / 1e3
	m["rds.onesided_frac"] = ratio(d.Stats.OneSidedOps, d.Stats.Ops)
	m["rds.cas_retries_per_put"] = ratio(d.Stats.CASRetries, st.puts)
	m["rds.torn_retries_per_get"] = ratio(d.Stats.TornRetries, st.gets)
	out.virt.Layers = m
	return out, nil
}

// prepopulate stores keys 1..n, each value carrying its own key in its
// first 8 bytes, so every Get can be checked against the key it asked for.
func prepopulate(d *rds.Deployment, n int) error {
	d.Srv.Prepopulate(uint64(n), 0)
	lay := d.Srv.Lay
	buf := d.Srv.Reg.Bytes()
	placed := 0
	for b := 0; b < lay.Buckets; b++ {
		boff := lay.BucketOff(b)
		for s := 0; s < lay.SlotsPerBucket; s++ {
			if k := binary.LittleEndian.Uint64(buf[boff+lay.KeyOff(s):]); k != 0 {
				binary.LittleEndian.PutUint64(buf[boff+lay.ValOff(s):], k)
				placed++
			}
		}
	}
	if placed != n {
		return fmt.Errorf("prepopulate placed %d of %d keys", placed, n)
	}
	return nil
}

// client is one closed-loop caller: it issues the next operation as soon
// as the previous one returns, until the measurement window ends.
func (st *kvState) client(t *host.Thread, id uint64, cl rds.Client, rng *stats.RNG, keys *stats.Zipf, horizon sim.Time) {
	val := make([]byte, kvValSize)
	var seq, n uint64
	for ; t.P.Now() < horizon; n++ {
		key := keys.Next() + 1
		put := rng.Float64() < kvPutFrac
		start := t.P.Now()
		var err error
		name := "rds.get"
		if put {
			name = "rds.put"
			seq++
			binary.LittleEndian.PutUint64(val, key)
			binary.LittleEndian.PutUint64(val[8:], id<<32|seq)
			err = cl.Put(t, key, val)
		} else {
			err = cl.Get(t, key, val)
			if err == nil && binary.LittleEndian.Uint64(val) != key {
				st.fail("client %d: Get(%d) returned the value of key %d", id, key, binary.LittleEndian.Uint64(val))
			}
			if errors.Is(err, rds.ErrNotFound) {
				st.fail("client %d: prepopulated key %d not found", id, key)
			}
		}
		end := t.P.Now()
		if err == nil {
			st.ops++
			if put {
				st.puts++
			} else {
				st.gets++
			}
		}
		if start < kvWarmup {
			continue
		}
		st.attempted++
		if err != nil {
			st.failed++
			continue
		}
		l := int64(end - start)
		st.lat.Record(l)
		if put {
			st.putLat.Record(l)
		} else {
			st.getLat.Record(l)
		}
		if st.traced {
			st.spans = append(st.spans, span{name: name, id: id<<32 | n, start: start, end: end})
		}
	}
}
