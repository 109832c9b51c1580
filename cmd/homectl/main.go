// Command homectl is the federation's command-line client: it lists
// services from the Virtual Service Repository, shows their interfaces,
// and invokes operations directly over SOAP — the "control everything
// from a PC" scenario of the paper's introduction.
//
// Against a home that enforces authentication (vsrd -identity), give
// homectl the same identity file with -identity: its repository and SOAP
// requests are then signed as that home. To call into a *different*
// home's gateways (cross-home IDs), also -trust that home's public key
// so its response signatures verify.
//
//	homectl -vsr http://127.0.0.1:8600/uddi list
//	homectl -vsr ... describe x10:lamp-1
//	homectl -vsr ... call x10:lamp-1 SetLevel 60
//	homectl -vsr ... -identity cottage.id call x10:lamp-1 SetLevel 60
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"homeconnect/internal/cli"
	"homeconnect/internal/core/identity"
	"homeconnect/internal/core/vsg"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/service"
	"homeconnect/internal/soap"
	"homeconnect/internal/transport"
)

// authHTTP signs every homectl request when -identity is given; nil in
// open mode (protocol clients then fall back to the shared transport).
var authHTTP *http.Client

func main() {
	vsrURL := flag.String("vsr", "http://127.0.0.1:8600/uddi", "Virtual Service Repository URL (comma-separate replica-set members for failover)")
	timeout := flag.Duration("timeout", 15*time.Second, "operation timeout")
	idFile := flag.String("identity", "", "home identity file to sign requests with")
	auditN := flag.Int("n", 20, "audit: number of tail records to show")
	var trust cli.Multi
	flag.Var(&trust, "trust", "trusted home, 'name=hex-public-key' (repeatable; requires -identity)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	if *idFile != "" {
		id, err := identity.Load(*idFile)
		if err != nil {
			log.Fatal(err)
		}
		auth := identity.NewAuth(id.Home())
		if err := auth.SetIdentity(id); err != nil {
			log.Fatal(err)
		}
		if err := identity.Configure(auth, trust, nil, nil); err != nil {
			log.Fatal(err)
		}
		authHTTP = transport.NewDialer(auth).HTTPClient()
	} else if len(trust) > 0 {
		log.Fatal("homectl: -trust requires -identity")
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	// A comma-separated -vsr is a replica set: repository traffic walks
	// the members with error-driven failover, so the same flag value
	// keeps working while the set changes leaders underneath it. The
	// operability faces (/health, /audit) are per-member by design and
	// read the first endpoint.
	endpoints := strings.Split(*vsrURL, ",")
	for i := range endpoints {
		endpoints[i] = strings.TrimSpace(endpoints[i])
	}
	opsURL := endpoints[0]
	repo := vsr.NewSet(endpoints...)
	if authHTTP != nil {
		repo.SetHTTPClient(authHTTP)
	}

	switch args[0] {
	case "list":
		list(ctx, repo)
	case "describe":
		if len(args) != 2 {
			usage()
		}
		describe(ctx, repo, args[1])
	case "call":
		if len(args) < 3 {
			usage()
		}
		call(ctx, repo, args[1], args[2], args[3:])
	case "scene":
		sceneCmd(ctx, repo, args[1:])
	case "health":
		health(ctx, opsURL)
	case "peers":
		peers(ctx, opsURL)
	case "audit":
		verify := false
		switch {
		case len(args) == 2 && args[1] == "verify":
			verify = true
		case len(args) > 1:
			usage()
		}
		auditCmd(ctx, opsURL, *auditN, verify)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: homectl [-vsr URL] <command>

commands:
  list                          list every federation service
  describe <service-id>         show a service's interface
  call <service-id> <op> [arg]  invoke an operation (text-form args)
  scene <subcommand>            run declarative compositions (scene -h)
  health                        repository health snapshot (/health face)
  peers                         peering link status per remote home
  audit [verify]                audit-log tail; verify recomputes the chain
`)
	os.Exit(2)
}

func list(ctx context.Context, repo *vsr.VSR) {
	remotes, err := repo.Find(ctx, vsr.Query{})
	if err != nil {
		log.Fatal(err)
	}
	if len(remotes) == 0 {
		fmt.Println("no services registered")
		return
	}
	fmt.Printf("%-28s %-8s %-14s %s\n", "SERVICE", "MWARE", "INTERFACE", "ENDPOINT")
	for _, r := range remotes {
		fmt.Printf("%-28s %-8s %-14s %s\n", r.Desc.ID, r.Desc.Middleware, r.Desc.Interface.Name, r.Endpoint)
	}
}

func describe(ctx context.Context, repo *vsr.VSR, id string) {
	r, err := repo.Lookup(ctx, id)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("service   %s (%s)\n", r.Desc.ID, r.Desc.Name)
	fmt.Printf("middleware %s\n", r.Desc.Middleware)
	fmt.Printf("endpoint  %s\n", r.Endpoint)
	fmt.Printf("interface %s\n", r.Desc.Interface.Name)
	for _, op := range r.Desc.Interface.Operations {
		fmt.Printf("  %s\n", op.Signature())
		if op.Doc != "" {
			fmt.Printf("      %s\n", op.Doc)
		}
	}
	if len(r.Desc.Context) > 0 {
		fmt.Println("context")
		for k, v := range r.Desc.Context {
			fmt.Printf("  %s = %s\n", k, v)
		}
	}
}

func call(ctx context.Context, repo *vsr.VSR, id, op string, textArgs []string) {
	r, err := repo.Lookup(ctx, id)
	if err != nil {
		log.Fatal(err)
	}
	opSpec, ok := r.Desc.Interface.Operation(op)
	if !ok {
		log.Fatalf("service %s has no operation %s", id, op)
	}
	args, err := service.CoerceArgs(opSpec, textArgs)
	if err != nil {
		log.Fatal(err)
	}
	callDoc := soap.Call{Namespace: vsg.Namespace(id), Operation: op}
	for i, p := range opSpec.Inputs {
		callDoc.Args = append(callDoc.Args, soap.Arg{Name: p.Name, Value: args[i]})
	}
	client := &soap.Client{URL: r.Endpoint, HTTP: authHTTP}
	result, err := client.Call(ctx, vsg.Namespace(id)+"#"+op, callDoc)
	if err != nil {
		log.Fatal(err)
	}
	if result.IsVoid() {
		fmt.Println("ok")
		return
	}
	fmt.Println(result.Text())
}
