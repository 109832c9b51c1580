package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"homeconnect/internal/core"
	"homeconnect/internal/core/audit"
	"homeconnect/internal/core/identity"
	"homeconnect/internal/core/peer"
	"homeconnect/internal/core/vsg"
	"homeconnect/internal/service"
	"homeconnect/internal/transport"
	"homeconnect/internal/uddi"
)

// Home roles: what one system-under-test process assembles.
const (
	roleCall   = "call"    // open-mode home exporting echo services (home-call)
	roleAway   = "away"    // home-a with identity + audit exporting echo services (away-call)
	roleChurnA = "churn-a" // home-a over a durable registry (churn)
	roleChurnB = "churn-b" // home-b importing home-a over a peer link (churn)
)

// homeReady is the line a home process prints once it is serving.
type homeReady struct {
	VSR  string `json:"vsr"`
	Peer string `json:"peer"`
	GW   string `json:"gw,omitempty"`
}

// homeStats is a home process's counters, read at the end of a run.
type homeStats struct {
	Calls      vsg.CallStats          `json:"calls"`
	Peers      map[string]peer.Status `json:"peers,omitempty"`
	Wire       transport.WireStats    `json:"wire,omitempty"`
	Audit      audit.Stats            `json:"audit"`
	Saves      int64                  `json:"saves"`
	Finds      int64                  `json:"finds"`
	ShardLoads []int64                `json:"shard_loads"`
	Durability uddi.DurabilityStats   `json:"durability"`
}

// homeMain runs one home of the system under test as its own OS
// process, assembled with the production constructors. It prints a
// homeReady line, then serves control commands on stdin — one reply
// line each — until "quit" or EOF:
//
//	stats          homeStats as JSON
//	trace on|off   record device spans
//	spans <path>   write recorded spans to path
//	quit           clean shutdown
func homeMain(args []string) error {
	fs := flag.NewFlagSet("home", flag.ContinueOnError)
	role := fs.String("role", roleCall, "home role: call, away, churn-a, churn-b")
	services := fs.Int("services", 0, "echo services to export")
	dataDir := fs.String("data", "", "durable registry directory (churn-a)")
	idSeed := fs.String("id-seed", "", "hex seed of this home's identity")
	trustName := fs.String("trust-home", "", "home to trust")
	trustKey := fs.String("trust-key", "", "public key of -trust-home")
	peerURL := fs.String("peer", "", "peer endpoint to import from")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var tr Tracer
	var fed *core.Federation
	var err error
	name := ""
	switch *role {
	case roleCall:
	case roleAway, roleChurnA:
		name = homeA
	case roleChurnB:
		name = homeB
	default:
		return fmt.Errorf("unknown role %q", *role)
	}
	if *role == roleChurnA {
		fed, err = core.NewDurableHomeFederation(name, uddi.DurabilityOptions{Dir: *dataDir})
	} else {
		fed, err = core.NewHomeFederation(name)
	}
	if err != nil {
		return err
	}
	defer fed.Shutdown()
	if *idSeed != "" {
		seed, err := hex.DecodeString(*idSeed)
		if err != nil {
			return err
		}
		id, err := identity.FromSeed(name, seed)
		if err != nil {
			return err
		}
		if err := fed.SetIdentity(id); err != nil {
			return err
		}
		if err := fed.TrustHome(*trustName, *trustKey); err != nil {
			return err
		}
	}
	if *role == roleAway {
		if err := fed.EnableAudit(audit.Options{}); err != nil {
			return err
		}
	}
	ready := homeReady{VSR: fed.VSRURL(), Peer: fed.PeerURL()}
	var gw *vsg.VSG
	if *services > 0 {
		n, err := fed.AddNetwork("devices")
		if err != nil {
			return err
		}
		gw = n.Gateway()
		ready.GW = gw.BaseURL()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for i := 0; i < *services; i++ {
			if err := gw.Export(ctx, echoDescription(i), echoInvoker(&tr)); err != nil {
				return err
			}
		}
	}
	if *peerURL != "" {
		if err := fed.Peer(*peerURL); err != nil {
			return err
		}
	}
	out := bufio.NewWriter(os.Stdout)
	reply := func(v any) {
		data, _ := json.Marshal(v)
		out.Write(data)
		out.WriteByte('\n')
		out.Flush()
	}
	reply(ready)

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		cmd, arg, _ := strings.Cut(in.Text(), " ")
		switch cmd {
		case "stats":
			reg := fed.VSRServer().Registry()
			st := homeStats{
				Peers:      fed.PeerStatus(),
				Wire:       fed.WireStats(),
				Audit:      fed.Audit().Stats(),
				ShardLoads: reg.ShardLoads(),
				Durability: reg.Durability(),
			}
			st.Saves, st.Finds = reg.Stats()
			if gw != nil {
				st.Calls = gw.CallStats()
			}
			reply(st)
		case "trace":
			tr.SetOn(arg == "on")
			reply("ok")
		case "spans":
			if err := writeSpans(arg, tr.Take()); err != nil {
				reply(err.Error())
				continue
			}
			reply("ok")
		case "quit":
			reply("ok")
			return nil
		default:
			reply("unknown command " + cmd)
		}
	}
	return in.Err()
}

// Echo service shape. Every operation returns its first argument, so a
// caller can check each result against what it sent; the request id
// rides inside that argument so spans on both sides of the wire join.
const (
	opPing  = "Ping"      // void → void (carries no request id)
	opInt   = "EchoInt"   // int → int; the value is the request id
	opStr   = "EchoStr"   // string → string; "<rid>|<payload>"
	opBytes = "EchoBytes" // bytes → bytes; 8-byte big-endian rid prefix
)

// echoServiceID names echo service i.
func echoServiceID(i int) string { return fmt.Sprintf("bench:echo-%03d", i) }

// echoDescription describes echo service i.
func echoDescription(i int) service.Description {
	id := echoServiceID(i)
	return service.Description{
		ID: id, Name: id, Middleware: "bench",
		Interface: service.Interface{Name: "Echo", Operations: []service.Operation{
			{Name: opPing, Output: service.KindVoid},
			{Name: opInt, Inputs: []service.Parameter{{Name: "v", Type: service.KindInt}}, Output: service.KindInt},
			{Name: opStr, Inputs: []service.Parameter{{Name: "s", Type: service.KindString}}, Output: service.KindString},
			{Name: opBytes, Inputs: []service.Parameter{{Name: "b", Type: service.KindBytes}}, Output: service.KindBytes},
		}},
	}
}

// echoInvoker is the device behind every echo service: it returns its
// first argument, recording a device.invoke span when tracing.
func echoInvoker(tr *Tracer) service.Invoker {
	return service.InvokerFunc(func(_ context.Context, op string, args []service.Value) (service.Value, error) {
		h := tr.Begin("device.invoke", -1, argRID(op, args))
		defer tr.End(h)
		if len(args) == 0 {
			return service.Void(), nil
		}
		return args[0], nil
	})
}

// argRID recovers the request id carried in a call's arguments (0 when
// the op carries none).
func argRID(op string, args []service.Value) int64 {
	if len(args) == 0 {
		return 0
	}
	switch op {
	case opInt:
		return args[0].Int()
	case opStr:
		head, _, ok := strings.Cut(args[0].Str(), "|")
		if !ok {
			return 0
		}
		rid, _ := strconv.ParseInt(head, 10, 64)
		return rid
	case opBytes:
		b := args[0].Bytes()
		if len(b) < 8 {
			return 0
		}
		return int64(binary.BigEndian.Uint64(b))
	}
	return 0
}
