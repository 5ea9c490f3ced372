package main

import (
	"fmt"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/mica"
	"scalerpc/internal/shard"
	"scalerpc/internal/sim"
	"scalerpc/internal/smallbank"
	"scalerpc/internal/stats"
	"scalerpc/internal/txn"
)

// smallbank: closed-loop SmallBank coordinators on the sharded KV, with
// replicated partitions on four shard hosts and a director on a fifth.
const (
	sbShardHosts  = 4
	sbPartitions  = 16
	sbClientHosts = 4
	sbCoords      = 32
	// sbAccounts keeps the 4% hot set at 400 accounts, which 32
	// coordinators still contend on.
	sbAccounts = 10_000
	sbWarmup   = 500 * sim.Microsecond
	sbWindow   = 15 * sim.Millisecond
	// sbDrain bounds how long in-flight transactions get to commit after
	// the window; every started transaction runs to commit.
	sbDrain = 5 * sim.Millisecond
)

// sbState aggregates the coordinators' accounting.
type sbState struct {
	traced  bool
	running int
	coords  []*txn.Coordinator

	commits   uint64 // whole run
	attempted uint64 // measured window
	delta     int64  // money added by committed transactions
	lat       *stats.Histogram
	spans     []span
}

// sbLoop feeds one coordinator's txn.RunLoop and learns, from the
// coordinator's commit count, when each transaction committed.
type sbLoop struct {
	st      *sbState
	t       *host.Thread
	co      *txn.Coordinator
	gen     *smallbank.Gen
	id      uint64
	n       uint64
	horizon sim.Time
	commits uint64
	cur     *sbTxn
}

// sbTxn is the transaction a loop is running.
type sbTxn struct {
	start    sim.Time
	measured bool
	// delta is the change in total balance of the latest Apply, which is
	// the one that commits.
	delta int64
}

func runSmallBank(seed uint64, ph *phase) (*outcome, error) {
	ccfg := cluster.Default(sbShardHosts + 1 + sbClientHosts)
	ccfg.Seed = seed
	c := cluster.New(ccfg)
	defer c.Close()
	shardHosts := make([]int, sbShardHosts)
	for i := range shardHosts {
		shardHosts[i] = i
	}
	store := mica.Config{Buckets: 1 << 10, Items: 1 << 12, SlotSize: 128}
	d := shard.Deploy(c, shard.DefaultDeployConfig(sbPartitions, shardHosts, sbShardHosts, store))
	sbCfg := smallbank.DefaultConfig()
	sbCfg.Accounts = sbAccounts
	if err := smallbank.LoadWith(sbCfg, d.LoadKV); err != nil {
		return nil, err
	}
	initial := 2 * int64(sbAccounts) * sbCfg.InitialBalance

	st := &sbState{traced: ph.traced, coords: make([]*txn.Coordinator, sbCoords), lat: stats.NewHistogram()}
	horizon := sbWarmup + sbWindow
	for i := 0; i < sbCoords; i++ {
		ch := c.Hosts[sbShardHosts+1+i%sbClientHosts]
		id := uint64(i)
		gen := smallbank.NewGen(sbCfg, seed*733+id)
		st.running++
		ch.Spawn(fmt.Sprintf("sb%d", i), func(t *host.Thread) {
			co := d.NewCoordinator(d.NewRouter(ch, shard.DefaultRouterConfig()), id+1)
			st.coords[id] = co
			t.P.Sleep(sim.Duration(id) * 311) // stagger the first transactions
			lp := &sbLoop{st: st, t: t, co: co, gen: gen, id: id, horizon: horizon}
			txn.RunLoop(t, co, lp.next, lp.stop)
			st.running--
		})
	}
	if err := ph.runUntil(c.Env, horizon+sbDrain); err != nil {
		return nil, err
	}
	if st.running != 0 {
		return nil, fmt.Errorf("%d coordinators still running at the drain deadline", st.running)
	}
	var readErr error
	total := smallbank.TotalBalanceWith(sbCfg, func(key []byte) int64 {
		v, err := d.ReadKV(key)
		if err != nil {
			readErr = fmt.Errorf("read %s: %w", key, err)
			return 0
		}
		return smallbank.Amount(v)
	})
	if readErr != nil {
		return nil, readErr
	}
	if total != initial+st.delta {
		return nil, fmt.Errorf("money not conserved: total balance %d, expected %d (initial %d + committed %d)",
			total, initial+st.delta, initial, st.delta)
	}

	var cs txn.CoordinatorStats
	for _, co := range st.coords {
		cs.Commits += co.Stats.Commits
		cs.LockAborts += co.Stats.LockAborts
		cs.ValidationAborts += co.Stats.ValidationAborts
		cs.NotFoundAborts += co.Stats.NotFoundAborts
	}
	if cs.NotFoundAborts != 0 {
		return nil, fmt.Errorf("%d transactions aborted on a missing account", cs.NotFoundAborts)
	}
	out := &outcome{
		virt: virtual{
			Lat:       st.lat,
			Window:    sbWindow,
			Attempted: st.attempted,
			Failed:    st.attempted - st.lat.Count(),
		},
		ops:   st.commits,
		spans: st.spans,
	}
	m := clusterLayers(c, shardHosts, st.commits)
	m["txn.commit_frac"] = ratio(cs.Commits, cs.Commits+cs.LockAborts+cs.ValidationAborts)
	m["txn.lock_aborts"] = float64(cs.LockAborts)
	m["txn.validation_aborts"] = float64(cs.ValidationAborts)
	m["shard.redirects"] = float64(d.Stats.Redirects)
	m["shard.repl_forwards_per_op"] = ratio(d.Stats.ReplForwards, st.commits)
	out.virt.Layers = m
	return out, nil
}

// next draws the next transaction and wraps its Apply to record how much
// money it adds.
func (lp *sbLoop) next() *txn.Txn {
	tx := lp.gen.Next()
	now := lp.t.P.Now()
	cur := &sbTxn{start: now, measured: now >= sbWarmup && now < lp.horizon}
	lp.cur = cur
	if cur.measured {
		lp.st.attempted++
	}
	if apply := tx.Apply; apply != nil {
		tx.Apply = func(rv, wv [][]byte) [][]byte {
			nv := apply(rv, wv)
			cur.delta = 0
			for i := range nv {
				cur.delta += smallbank.Amount(nv[i]) - smallbank.Amount(wv[i])
			}
			return nv
		}
	}
	return tx
}

// stop is RunLoop's stop check, called after every commit and abort. It
// books a transaction that just committed, keeps an aborted one retrying
// until it commits, and ends the loop at the horizon.
func (lp *sbLoop) stop() bool {
	if lp.cur != nil && lp.co.Stats.Commits != lp.commits {
		lp.commits = lp.co.Stats.Commits
		st, cur, now := lp.st, lp.cur, lp.t.P.Now()
		st.commits++
		st.delta += cur.delta
		if cur.measured {
			st.lat.Record(int64(now - cur.start))
			if st.traced {
				st.spans = append(st.spans, span{name: "txn.run", id: lp.id<<32 | lp.n, start: cur.start, end: now})
			}
		}
		lp.n++
		lp.cur = nil
	}
	return lp.cur == nil && lp.t.P.Now() >= lp.horizon
}
