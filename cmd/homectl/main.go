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
	"errors"
	"flag"
	"fmt"
	"io"
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

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// ctl is one homectl invocation: where it writes, and the clients its
// flags built.
type ctl struct {
	stdout, stderr io.Writer
	repo           *vsr.VSR
	// opsURL is the repository member whose /health and /audit faces
	// the operability commands read.
	opsURL string
	// dialer carries repository traffic and SOAP calls: the binary fast
	// path where the far side offers it, SOAP/HTTP otherwise, signed as
	// the home when -identity is given.
	dialer *transport.Dialer
	// httpC is the dialer's HTTP side, for the HTTP-only faces (/health,
	// /audit, event hubs).
	httpC *http.Client
}

// errUsage and errSceneUsage make run print the matching usage text and
// exit 2.
var (
	errUsage      = errors.New("usage")
	errSceneUsage = errors.New("scene usage")
)

// run executes one homectl command line and returns the process exit
// status: 0 on success, 1 when the command fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("homectl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	vsrURL := fs.String("vsr", "http://127.0.0.1:8600/uddi", "Virtual Service Repository URL (comma-separate replica-set members for failover)")
	timeout := fs.Duration("timeout", 15*time.Second, "operation timeout")
	idFile := fs.String("identity", "", "home identity file to sign requests with")
	auditN := fs.Int("n", 20, "audit: number of tail records to show")
	var trust cli.Multi
	fs.Var(&trust, "trust", "trusted home, 'name=hex-public-key' (repeatable; requires -identity)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	c := &ctl{stdout: stdout, stderr: stderr}
	err := c.setup(*vsrURL, *idFile, trust)
	if err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		err = c.dispatch(ctx, fs.Args(), *auditN)
	}
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errUsage):
		fmt.Fprint(stderr, usage)
		return 2
	case errors.Is(err, errSceneUsage):
		fmt.Fprint(stderr, sceneUsage)
		return 2
	}
	fmt.Fprintln(stderr, "homectl:", err)
	return 1
}

// setup builds the clients: a dialer signing as the home in -identity
// (open and shared otherwise) and the repository client riding it.
func (c *ctl) setup(vsrURL, idFile string, trust []string) error {
	c.dialer = transport.OpenDialer()
	if idFile != "" {
		id, err := identity.Load(idFile)
		if err != nil {
			return err
		}
		auth := identity.NewAuth(id.Home())
		if err := auth.SetIdentity(id); err != nil {
			return err
		}
		if err := identity.Configure(auth, trust, nil, nil); err != nil {
			return err
		}
		c.dialer = transport.NewDialer(auth)
	} else if len(trust) > 0 {
		return errors.New("-trust requires -identity")
	}
	c.httpC = c.dialer.HTTPClient()
	// A comma-separated -vsr is a replica set: repository traffic walks
	// the members with error-driven failover, so the same flag value
	// keeps working while the set changes leaders underneath it. The
	// operability faces (/health, /audit) are per-member by design and
	// read the first endpoint.
	endpoints := strings.Split(vsrURL, ",")
	for i := range endpoints {
		endpoints[i] = strings.TrimSpace(endpoints[i])
	}
	c.opsURL = endpoints[0]
	c.repo = vsr.NewSet(endpoints...)
	c.repo.SetDialer(c.dialer)
	return nil
}

// dispatch runs the command named by args[0].
func (c *ctl) dispatch(ctx context.Context, args []string, auditN int) error {
	if len(args) == 0 {
		return errUsage
	}
	switch args[0] {
	case "list":
		return c.list(ctx)
	case "describe":
		if len(args) != 2 {
			return errUsage
		}
		return c.describe(ctx, args[1])
	case "call":
		if len(args) < 3 {
			return errUsage
		}
		return c.call(ctx, args[1], args[2], args[3:])
	case "scene":
		return c.sceneCmd(ctx, args[1:])
	case "health":
		return c.health(ctx)
	case "peers":
		return c.peers(ctx)
	case "audit":
		verify := false
		switch {
		case len(args) == 2 && args[1] == "verify":
			verify = true
		case len(args) > 1:
			return errUsage
		}
		return c.auditCmd(ctx, auditN, verify)
	}
	return errUsage
}

const usage = `usage: homectl [-vsr URL] <command>

commands:
  list                          list every federation service
  describe <service-id>         show a service's interface
  call <service-id> <op> [arg]  invoke an operation (text-form args)
  scene <subcommand>            run declarative compositions (scene -h)
  health                        repository health snapshot (/health face)
  peers                         peering link status per remote home
  audit [verify]                audit-log tail; verify recomputes the chain
`

func (c *ctl) list(ctx context.Context) error {
	remotes, err := c.repo.Find(ctx, vsr.Query{})
	if err != nil {
		return err
	}
	if len(remotes) == 0 {
		fmt.Fprintln(c.stdout, "no services registered")
		return nil
	}
	fmt.Fprintf(c.stdout, "%-28s %-8s %-14s %s\n", "SERVICE", "MWARE", "INTERFACE", "ENDPOINT")
	for _, r := range remotes {
		fmt.Fprintf(c.stdout, "%-28s %-8s %-14s %s\n", r.Desc.ID, r.Desc.Middleware, r.Desc.Interface.Name, r.Endpoint)
	}
	return nil
}

func (c *ctl) describe(ctx context.Context, id string) error {
	r, err := c.repo.Lookup(ctx, id)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "service   %s (%s)\n", r.Desc.ID, r.Desc.Name)
	fmt.Fprintf(c.stdout, "middleware %s\n", r.Desc.Middleware)
	fmt.Fprintf(c.stdout, "endpoint  %s\n", r.Endpoint)
	fmt.Fprintf(c.stdout, "interface %s\n", r.Desc.Interface.Name)
	for _, op := range r.Desc.Interface.Operations {
		fmt.Fprintf(c.stdout, "  %s\n", op.Signature())
		if op.Doc != "" {
			fmt.Fprintf(c.stdout, "      %s\n", op.Doc)
		}
	}
	if len(r.Desc.Context) > 0 {
		fmt.Fprintln(c.stdout, "context")
		for k, v := range r.Desc.Context {
			fmt.Fprintf(c.stdout, "  %s = %s\n", k, v)
		}
	}
	return nil
}

func (c *ctl) call(ctx context.Context, id, op string, textArgs []string) error {
	r, err := c.repo.Lookup(ctx, id)
	if err != nil {
		return err
	}
	opSpec, ok := r.Desc.Interface.Operation(op)
	if !ok {
		return fmt.Errorf("service %s has no operation %s", id, op)
	}
	args, err := service.CoerceArgs(opSpec, textArgs)
	if err != nil {
		return err
	}
	result, err := c.invoke(ctx, r, opSpec, args)
	if err != nil {
		return err
	}
	if result.IsVoid() {
		fmt.Fprintln(c.stdout, "ok")
		return nil
	}
	fmt.Fprintln(c.stdout, result.Text())
	return nil
}

// invoke calls op on a resolved service over the dialer.
func (c *ctl) invoke(ctx context.Context, r vsr.Remote, op service.Operation, args []service.Value) (service.Value, error) {
	ns := vsg.Namespace(r.Desc.ID)
	call := soap.Call{Namespace: ns, Operation: op.Name}
	for i, p := range op.Inputs {
		call.Args = append(call.Args, soap.Arg{Name: p.Name, Value: args[i]})
	}
	client := &soap.Client{URL: r.Endpoint, Dialer: c.dialer}
	return client.Call(ctx, ns+"#"+op.Name, call)
}
