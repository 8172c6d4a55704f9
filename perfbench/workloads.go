package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"wavnet/internal/apps"
	"wavnet/internal/ipstack"
	"wavnet/internal/netsim"
	"wavnet/internal/rendezvous"
	"wavnet/internal/scenario"
	"wavnet/internal/sim"
	"wavnet/internal/vpc"
)

// Workload sizes: one repetition's measured phase takes 0.3 to 2 host
// seconds on a 2-vCPU x86 virtual machine, so a 20-second run holds
// from several to dozens of repetitions.
const (
	bulkBytes     = 16 << 20 // bulk_tcp: one transfer, op = 1 MiB delivered
	bulkChunk     = 16 << 10 // ttcp's write size
	bulkMark      = 16 << 10 // latency sample granularity at the sink
	webFor        = time.Second
	webTenants    = 4
	webClients    = 3 // client members per tenant
	webWorkers    = 2 // closed-loop connections per client member
	webSize       = 1 << 10
	churnMachines = 32
	churnTenants  = 4
	churnRounds   = 50
	churnEvery    = 10 * time.Second
	scrapeEvery   = 15 * time.Second
)

// member resolves a network member's stack after an apply.
func member(w *scenario.World, network, host string) (*vpc.Member, error) {
	n, ok := w.VPC().Get(network)
	if !ok {
		return nil, fmt.Errorf("network %s missing", network)
	}
	mb, ok := n.Member(host)
	if !ok {
		return nil, fmt.Errorf("%s is not a member of %s", host, network)
	}
	return mb, nil
}

// apply converges one tenant spec from a benchmark process and records
// the apply's simulated duration (exact, from inside the process) and
// its host time. It drives the engine in short slices until the apply
// returns.
func (m *meter) apply(w *scenario.World, spec vpc.TenantSpec) (sim.Duration, error) {
	var rep *vpc.ApplyReport
	var err error
	done := false
	var took sim.Duration
	grows := admitsMembers(w, spec)
	t0, cal0 := time.Now(), m.calSpent()
	w.Eng.Spawn("bench-apply", func(p *sim.Proc) {
		start := p.Now()
		rep, err = w.Apply(p, spec)
		took = p.Now().Sub(start)
		done = true
	})
	for spent := sim.Duration(0); !done && spent < 30*time.Minute; spent += 50 * time.Millisecond {
		w.Eng.RunFor(50 * time.Millisecond)
		if m.heap != nil {
			m.sample()
		}
	}
	c := &m.ctl
	c.applyHostMs = append(c.applyHostMs, float64(time.Since(t0)-(m.calSpent()-cal0))/1e6)
	if !done {
		return took, fmt.Errorf("apply for tenant %s still pending", spec.Tenant)
	}
	c.applies++
	if grows {
		c.growS = append(c.growS, took.Seconds())
	}
	if rep != nil {
		c.actions += len(rep.Actions)
		for _, a := range rep.Actions {
			switch a.Op {
			case "evict":
				if n, ok := w.VPC().Get(a.Network); ok && !n.Config().StaticAddressing {
					c.leasedEvictions++
				}
			case "admit":
				c.admits++
			}
		}
	}
	return took, err
}

// admitsMembers reports whether applying spec would admit a member: it
// lists a machine its network does not hold yet.
func admitsMembers(w *scenario.World, spec vpc.TenantSpec) bool {
	for _, ns := range spec.Networks {
		n, ok := w.VPC().Get(ns.Name)
		for _, k := range ns.Members {
			if !ok {
				return true
			}
			if _, in := n.Member(k); !in {
				return true
			}
		}
	}
	return false
}

// bulkTCP is one ttcp transfer across a two-member tenant network.
func bulkTCP(seed int64, m *meter) error {
	m.startBuild()
	// The seed draws the access rate within ±2% of 100 Mbps: steady
	// bulk TCP is paced by the bottleneck alone, so this is what makes
	// its simulated figures differ between seeds.
	bps := wanBps * (1 + 0.04*(rand.New(rand.NewSource(seed)).Float64()-0.5))
	w, err := newWorld(seed, 2, bps)
	if err != nil {
		return err
	}
	m.built(w)
	spec := vpc.TenantSpec{Tenant: "bulk", Networks: []vpc.NetworkSpec{{
		Name: "bulk", CIDR: "10.0.0.0/24", Members: []string{"pc00", "pc01"},
	}}}
	if _, err := m.apply(w, spec); err != nil {
		return err
	}
	m.setupDone(w)
	defer w.Eng.Stop()
	if m.setupOnly {
		return nil
	}
	src, err := member(w, "bulk", "pc00")
	if err != nil {
		return err
	}
	dst, err := member(w, "bulk", "pc01")
	if err != nil {
		return err
	}
	lis, err := dst.Stack.Listen(5001)
	if err != nil {
		return err
	}
	// Sink: reads to EOF and timestamps every bulkMark bytes.
	var got int64
	var marks []sim.Time
	var lastByte sim.Time
	sinkDone := false
	w.Eng.Spawn("bulk-sink", func(p *sim.Proc) {
		defer func() { sinkDone = true }()
		conn, err := lis.Accept(p)
		if err != nil {
			return
		}
		buf := make([]byte, 64<<10)
		for {
			n, err := conn.Read(p, buf)
			if n > 0 {
				got += int64(n)
				lastByte = p.Now()
				for int64(len(marks)+1)*bulkMark <= got {
					marks = append(marks, p.Now())
				}
			}
			if err != nil {
				return
			}
		}
	})
	var conn *ipstack.Conn
	var sent int64
	var sendErr error
	sendDone := false
	w.Eng.Spawn("bulk-send", func(p *sim.Proc) {
		defer func() { sendDone = true }()
		c, err := src.Stack.Dial(p, netsim.Addr{IP: dst.IP, Port: 5001})
		if err != nil {
			sendErr = err
			return
		}
		conn = c
		chunk := make([]byte, bulkChunk)
		for sent < bulkBytes {
			n, err := c.Write(p, chunk)
			sent += int64(n)
			if err != nil {
				sendErr = err
				return
			}
		}
		c.Close()
	})
	m.begin(w)
	m.drive(10*time.Millisecond, 10*time.Minute, func() bool { return sendDone && sinkDone })
	m.end(lastByte)

	m.attempted = bulkBytes >> 20
	if sendErr != nil {
		m.failf("bulk_tcp: transfer failed: %v", sendErr)
	}
	if got != sent || sent != bulkBytes {
		m.failf("bulk_tcp: sink received %d bytes, sender wrote %d of %d", got, sent, bulkBytes)
	} else {
		m.ops = m.attempted
	}
	m.payload = got
	prev := m.simStart
	for _, t := range marks {
		m.latMs = append(m.latMs, float64(t.Sub(prev))/1e6)
		prev = t
	}
	if conn != nil {
		m.segs = conn.SegsOut + conn.SegsIn
		m.segsOut = conn.SegsOut
		m.retx = conn.Retransmits
	}
	return nil
}

// webSmall is the paper's ApacheBench test with 1 KB files: several
// tenants with identical address plans, one HTTP server and a few
// closed-loop clients each, over one shared substrate.
func webSmall(seed int64, m *meter) error {
	m.startBuild()
	w, err := newWorld(seed, webTenants*(1+webClients), wanBps)
	if err != nil {
		return err
	}
	m.built(w)
	key := func(i int) string { return fmt.Sprintf("pc%02d", i) }
	type tenant struct {
		net     string
		server  *vpc.Member
		clients []*vpc.Member
	}
	tenants := make([]*tenant, webTenants)
	for t := range tenants {
		tn := &tenant{net: fmt.Sprintf("web%d", t)}
		tenants[t] = tn
		var members []string
		for i := 0; i <= webClients; i++ {
			members = append(members, key(t*(1+webClients)+i))
		}
		spec := vpc.TenantSpec{Tenant: tn.net, Networks: []vpc.NetworkSpec{{
			Name: tn.net, CIDR: "10.0.0.0/24", Members: members,
		}}}
		if _, err := m.apply(w, spec); err != nil {
			return err
		}
	}
	m.setupDone(w)
	defer w.Eng.Stop()
	if m.setupOnly {
		return nil
	}
	for t, tn := range tenants {
		base := t * (1 + webClients)
		srv, err := member(w, tn.net, key(base))
		if err != nil {
			return err
		}
		tn.server = srv
		if err := apps.StartHTTPServer(srv.Stack, 80); err != nil {
			return err
		}
		for i := 1; i <= webClients; i++ {
			c, err := member(w, tn.net, key(base+i))
			if err != nil {
				return err
			}
			tn.clients = append(tn.clients, c)
		}
	}

	req := []byte("GET /" + strconv.Itoa(webSize) + "\n")
	respLen := uint64(len("OK "+strconv.Itoa(webSize)+"\n") + webSize)
	completed := make([]int, webTenants)
	var attempted, live int
	rng := rand.New(rand.NewSource(seed))
	deadline := w.Eng.Now().Add(webFor)
	var lastDone sim.Time
	for t, tn := range tenants {
		for _, c := range tn.clients {
			for k := 0; k < webWorkers; k++ {
				t, st := t, c.Stack
				server := netsim.Addr{IP: tn.server.IP, Port: 80}
				offset := time.Duration(rng.Int63n(int64(5 * time.Millisecond)))
				live++
				w.Eng.Spawn("web-client", func(p *sim.Proc) {
					defer func() { live-- }()
					p.Sleep(offset)
					buf := make([]byte, 4<<10)
					for p.Now() < deadline {
						attempted++
						t0 := p.Now()
						conn, err := st.Dial(p, server)
						if err != nil {
							continue
						}
						announced, body, err := fetch(p, conn, req, buf)
						conn.Close()
						m.segs += conn.SegsOut + conn.SegsIn
						m.segsOut += conn.SegsOut
						m.retx += conn.Retransmits
						if err != nil {
							continue
						}
						if announced != webSize || body != webSize {
							m.failf("web_small: requested %d bytes, response announced %d and carried %d",
								webSize, announced, body)
						}
						completed[t]++
						m.latMs = append(m.latMs, float64(p.Now().Sub(t0))/1e6)
						lastDone = p.Now()
					}
				})
			}
		}
	}
	// Server-side accounting: every accepted connection lingers in
	// TIME_WAIT for a simulated second after it closes, so sampling the
	// server stacks every half second sees each one at least once. A
	// client stack hands out ephemeral ports in sequence and a
	// repetition uses far fewer than the range holds, so the remote
	// address names one request.
	served := make([]map[netsim.Addr]bool, webTenants)
	for t := range served {
		served[t] = make(map[netsim.Addr]bool)
	}
	scan := func() {
		for t, tn := range tenants {
			for _, c := range tn.server.Stack.Conns() {
				if c.LocalAddr().Port == 80 && c.BytesIn == uint64(len(req)) && c.BytesOut == respLen {
					served[t][c.RemoteAddr()] = true
				}
			}
		}
	}
	m.begin(w)
	for spent := sim.Duration(0); live > 0 && spent < webFor+time.Minute; spent += 500 * time.Millisecond {
		m.drive(50*time.Millisecond, 500*time.Millisecond, func() bool { return live == 0 })
		scan()
	}
	m.end(lastDone)
	// Let the last connections finish closing, then count them too.
	w.Eng.RunFor(500 * time.Millisecond)
	scan()

	ok := 0
	for t := range tenants {
		ok += completed[t]
		if len(served[t]) != completed[t] {
			m.failf("web_small: tenant %d server answered %d requests, clients completed %d",
				t, len(served[t]), completed[t])
		}
	}
	if live > 0 {
		m.failf("web_small: %d clients still running after the deadline", live)
	}
	m.attempted, m.ops = attempted, ok
	m.payload = int64(ok) * webSize
	return nil
}

// fetch sends one request on conn and reads the response to EOF. It
// returns the size the "OK <size>" header announced and the number of
// body bytes that followed it; err reports a transport failure.
func fetch(p *sim.Proc, conn *ipstack.Conn, req, buf []byte) (announced, body int, err error) {
	if _, err := conn.Write(p, req); err != nil {
		return 0, 0, err
	}
	var head []byte
	announced = -1
	for {
		n, rerr := conn.Read(p, buf)
		if announced >= 0 {
			body += n
		} else if head = append(head, buf[:n]...); strings.IndexByte(string(head), '\n') >= 0 {
			i := strings.IndexByte(string(head), '\n')
			line := string(head[:i])
			size, perr := strconv.Atoi(strings.TrimPrefix(line, "OK "))
			if !strings.HasPrefix(line, "OK ") || perr != nil {
				return 0, 0, fmt.Errorf("bad response header %q", line)
			}
			announced, body = size, len(head)-i-1
		}
		if rerr != nil {
			if announced < 0 {
				return 0, 0, rerr
			}
			return announced, body, nil
		}
	}
}

// controlChurn resizes several tenants' networks over a shared
// substrate: every churnEvery simulated seconds a round shrinks each
// tenant to its anchor and regrows it with a rotated set of members, so
// machines keep moving between tenants. Half the tenants lease member
// addresses over DHCP, half use static addressing. The data plane is
// idle apart from one reachability probe per admission; a ticker
// scrapes the world every scrapeEvery simulated.
func controlChurn(seed int64, m *meter) error {
	m.startBuild()
	w, err := newWorld(seed, churnMachines, wanBps)
	if err != nil {
		return err
	}
	if _, err := w.AddBroker("rdv2", rendezvous.Config{}); err != nil {
		return err
	}
	key := func(i int) string { return fmt.Sprintf("pc%02d", i) }
	for i := 1; i < churnMachines; i += 2 {
		if err := w.SetHome(key(i), "rdv2"); err != nil {
			return err
		}
	}
	m.built(w)
	// Machines 0..churnTenants-1 anchor one tenant each; in round r,
	// rotating machine j belongs to tenant (j+r) mod churnTenants. The
	// seed reaches this workload through the engine: WAN jitter, DHCP
	// transaction IDs and TCP sequence numbers.
	spec := func(t, round int) vpc.TenantSpec {
		members := []string{key(t)}
		for j := 0; round >= 0 && j < churnMachines-churnTenants; j++ {
			if (j+round)%churnTenants == t {
				members = append(members, key(churnTenants+j))
			}
		}
		name := fmt.Sprintf("churn%d", t)
		return vpc.TenantSpec{Tenant: name, Networks: []vpc.NetworkSpec{{
			Name: name, CIDR: "10.0.0.0/24", Members: members,
			StaticAddressing: t%2 == 1,
			Brokers:          []string{scenario.PrimaryBroker, "rdv2"},
		}}}
	}
	for t := 0; t < churnTenants; t++ {
		if _, err := m.apply(w, spec(t, 0)); err != nil {
			return err
		}
	}
	m.setupDone(w)
	defer w.Eng.Stop()
	if m.setupOnly {
		return nil
	}

	var lastScrape int
	var lastProbe sim.Time // when the last converged admission answered
	scraper := sim.NewTicker(w.Eng, scrapeEvery, func() {
		t0 := time.Now()
		r := w.Scrape()
		m.scrapeHostMs = append(m.scrapeHostMs, float64(time.Since(t0))/1e6)
		lastScrape = r.Len()
	})
	releasesAt := churnReleases(w)
	relayedAt, connectsAt := brokerConnects(w)
	m.begin(w)
	for round := 1; round <= churnRounds; round++ {
		// Rounds start on a fixed simulated cadence.
		next := m.simStart.Add(time.Duration(round-1) * churnEvery)
		m.drive(50*time.Millisecond, churnEvery, func() bool { return w.Eng.Now() >= next })
		for t := 0; t < churnTenants; t++ {
			shrunk := spec(t, -1)
			if _, err := m.apply(w, shrunk); err != nil {
				m.failf("control_churn: shrinking tenant %d failed: %v", t, err)
			} else {
				checkMembers(m, w, shrunk)
			}
		}
		for t := 0; t < churnTenants; t++ {
			want := spec(t, round)
			took, err := m.apply(w, want)
			if err == nil {
				checkMembers(m, w, want)
			}
			newcomers := want.Networks[0].Members[1:]
			m.attempted += len(newcomers)
			ok, at := probe(m, w, want.Networks[0].Name, key(t), newcomers, took)
			m.ops += ok
			if ok > 0 {
				lastProbe = at
			}
		}
	}
	m.end(lastProbe)
	scraper.Stop()
	m.series = lastScrape
	m.releases = churnReleases(w) - releasesAt
	relayed, connects := brokerConnects(w)
	m.relayed, m.connects = relayed-relayedAt, connects-connectsAt
	return nil
}

// checkMembers asserts that after a successful apply every network of
// the spec holds exactly the members the spec lists.
func checkMembers(m *meter, w *scenario.World, spec vpc.TenantSpec) {
	for _, ns := range spec.Networks {
		n, ok := w.VPC().Get(ns.Name)
		if !ok {
			m.failf("control_churn: network %s missing after apply", ns.Name)
			continue
		}
		want := make(map[string]bool, len(ns.Members))
		for _, k := range ns.Members {
			want[k] = true
		}
		have := n.Members()
		if len(have) != len(want) {
			m.failf("control_churn: %s has %d members after apply, spec lists %d", ns.Name, len(have), len(want))
			continue
		}
		for _, mb := range have {
			if !want[mb.Host.Name()] {
				m.failf("control_churn: %s holds %s, which its spec does not list", ns.Name, mb.Host.Name())
			}
		}
	}
}

// probe pings the anchor from every newcomer that the apply admitted
// and returns how many answered, the converged admissions, and the
// simulated time the last answer arrived (zero when none did). Each
// converged admission's latency is its apply's duration.
func probe(m *meter, w *scenario.World, network, anchor string, newcomers []string, apply sim.Duration) (int, sim.Time) {
	a, err := member(w, network, anchor)
	if err != nil {
		return 0, 0
	}
	var stacks []*ipstack.Stack
	for _, k := range newcomers {
		if mb, err := member(w, network, k); err == nil {
			stacks = append(stacks, mb.Stack)
		}
	}
	ok, done := 0, false
	var at sim.Time
	w.Eng.Spawn("bench-probe", func(p *sim.Proc) {
		defer func() { done = true }()
		for _, st := range stacks {
			if _, err := st.Ping(p, a.IP, 56, time.Second); err == nil {
				ok++
				at = p.Now()
			}
		}
	})
	m.drive(50*time.Millisecond, time.Duration(len(stacks)+1)*time.Second, func() bool { return done })
	for i := 0; i < ok; i++ {
		m.latMs = append(m.latMs, float64(apply)/1e6)
	}
	m.payload += int64(ok) * 56
	return ok, at
}

// churnReleases sums the DHCP releases every churn network's server
// has received.
func churnReleases(w *scenario.World) uint64 {
	var n uint64
	for _, net := range w.VPC().Networks() {
		if s := net.DHCPServer(); s != nil {
			n += s.Releases
		}
	}
	return n
}

// brokerConnects sums the brokers' relayed introductions and connects.
func brokerConnects(w *scenario.World) (relayed, connects uint64) {
	for _, b := range w.Brokers {
		relayed += b.RelayedIntroductions
		connects += b.Connects
	}
	return relayed, connects
}
