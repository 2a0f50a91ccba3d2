package chaos

import (
	"fmt"
	"os"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/core"
	"hybridgc/internal/gc"
	"hybridgc/internal/netfault"
	"hybridgc/internal/node"
	"hybridgc/internal/repl"
	"hybridgc/internal/server"
	"hybridgc/internal/ts"
)

// Timing profile for chaos runs: tight enough that partitions, demotions and
// redials all happen inside a few seconds of wall clock, loose enough that a
// healthy loopback exchange never trips a deadline.
const (
	heartbeatEvery  = 20 * time.Millisecond
	reportEvery     = 20 * time.Millisecond
	staleAfter      = 500 * time.Millisecond
	streamWriteTO   = 300 * time.Millisecond
	replicaStallTO  = 600 * time.Millisecond
	clientDialTO    = 400 * time.Millisecond
	clientRequestTO = 800 * time.Millisecond
)

// cluster is the system under test: one persistent primary, N replicas each
// streaming through their own fault proxy, and a pooled client dialing the
// primary through the client proxy.
type cluster struct {
	dir string

	primary *node.Node
	db      *core.DB // the primary's engine
	src     *repl.Source

	clientInj   *netfault.Injector
	clientProxy *netfault.Proxy
	cl          *client.Client

	replicas []*replicaNode

	accounts ts.TableID
	ledger   ts.TableID
	acctRIDs []ts.RID
	total    int64
}

// startCluster builds the whole topology and seeds the bank.
func startCluster(opt Options) (*cluster, error) {
	dir, err := os.MkdirTemp("", "chaos-*")
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir}
	fail := func(err error) (*cluster, error) {
		c.stop()
		return nil, err
	}

	c.primary, err = node.Start(primaryConfig(dir, repl.SourceConfig{
		HeartbeatEvery: heartbeatEvery,
		StaleAfter:     staleAfter,
		WriteTimeout:   streamWriteTO,
	}))
	if err != nil {
		return fail(err)
	}
	c.db, c.src = c.primary.DB(), c.primary.Source()
	addr := c.primary.Addr()

	// Seed the bank directly on the engine, before any network weather.
	if err := c.seedBank(opt.Accounts); err != nil {
		return fail(err)
	}

	// Client path: pooled client → injector-armed proxy → primary. The
	// injector's per-I/O kills, stalls and partial writes ride on top of
	// whatever the nemesis does to the proxy's gates.
	c.clientInj = netfault.NewInjector(opt.Seed, netfault.Plan{
		KillProb:         0.004,
		StallProb:        0.004,
		Stall:            100 * time.Millisecond,
		PartialWriteProb: 0.002,
	})
	c.clientProxy, err = netfault.NewProxy(addr, c.clientInj)
	if err != nil {
		return fail(err)
	}
	c.cl, err = client.Dial(client.Config{
		Addr:           c.clientProxy.Addr(),
		MaxConns:       8,
		DialTimeout:    clientDialTO,
		RequestTimeout: clientRequestTO,
		RedialBase:     10 * time.Millisecond,
		RedialMax:      150 * time.Millisecond,
	})
	if err != nil {
		return fail(err)
	}

	// Replica paths: each replica dials the primary through its own proxy so
	// the nemesis can partition them independently.
	for i := 0; i < opt.Replicas; i++ {
		n, err := startReplicaNode(fmt.Sprintf("r%d", i), addr)
		if err != nil {
			return fail(err)
		}
		c.replicas = append(c.replicas, n)
	}
	return c, nil
}

// primaryConfig is the chaos primary: a persistent engine on the chaos GC
// profile serving replication streams tuned by src.
func primaryConfig(dir string, src repl.SourceConfig) node.Config {
	return node.Config{
		Addr:   "127.0.0.1:0",
		Engine: engineConfig(&core.Persistence{Dir: dir}),
		Server: server.Config{WriteTimeout: clientRequestTO},
		Source: src,
	}
}

// replicaConfig is a chaos replica of upstream: the chaos GC profile on a
// read-only engine, and the applier tuned by rc.
func replicaConfig(upstream string, rc repl.ReplicaConfig) node.Config {
	rc.Upstream = upstream
	rc.ReportEvery = reportEvery
	rc.ReconnectBase, rc.ReconnectMax = 10*time.Millisecond, 200*time.Millisecond
	return node.Config{
		Addr:    "127.0.0.1:0",
		Engine:  engineConfig(nil),
		Server:  server.Config{WriteTimeout: clientRequestTO},
		Replica: rc,
	}
}

func engineConfig(p *core.Persistence) core.Config {
	return core.Config{
		GC:                 gc.Periods{GT: 25 * time.Millisecond, TG: 75 * time.Millisecond, SI: 50 * time.Millisecond},
		LongLivedThreshold: 50 * time.Millisecond,
		Persistence:        p,
	}
}

// seedBank creates the accounts and ledger tables and funds every account.
func (c *cluster) seedBank(accounts int) error {
	var err error
	if c.accounts, err = c.db.CreateTable("accounts"); err != nil {
		return err
	}
	if c.ledger, err = c.db.CreateTable("ledger"); err != nil {
		return err
	}
	const initial = 1000
	for i := 0; i < accounts; i++ {
		rid, err := insertLocal(c.db, c.accounts, formatBalance(initial))
		if err != nil {
			return err
		}
		c.acctRIDs = append(c.acctRIDs, rid)
		c.total += initial
	}
	return nil
}

// healAll clears every proxy fault so the cluster can converge.
func (c *cluster) healAll() {
	c.clientProxy.Heal()
	for _, n := range c.replicas {
		n.proxy.Heal()
	}
}

// stop tears the whole topology down; safe on a partially built cluster.
func (c *cluster) stop() {
	if c.cl != nil {
		c.cl.Close()
	}
	if c.clientProxy != nil {
		c.clientProxy.Close()
	}
	for _, n := range c.replicas {
		n.stop()
	}
	if c.primary != nil {
		c.primary.Close(5 * time.Second)
	}
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}

// replicaNode is one replica node streaming from the primary through a fault
// proxy. The node re-bootstraps itself after demotion; readers hold its
// engine through WithDB for as long as they keep a cursor into it.
type replicaNode struct {
	id    string
	proxy *netfault.Proxy
	*node.Node
}

func startReplicaNode(id, primaryAddr string) (*replicaNode, error) {
	proxy, err := netfault.NewProxy(primaryAddr, nil)
	if err != nil {
		return nil, err
	}
	nd, err := node.Start(replicaConfig(proxy.Addr(), repl.ReplicaConfig{
		ReplicaID:    id,
		DialTimeout:  300 * time.Millisecond,
		StallTimeout: replicaStallTO,
		WriteTimeout: streamWriteTO,
	}))
	if err != nil {
		proxy.Close()
		return nil, err
	}
	return &replicaNode{id: id, proxy: proxy, Node: nd}, nil
}

func (n *replicaNode) stop() {
	n.Close(5 * time.Second)
	n.proxy.Close()
}
