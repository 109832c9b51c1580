// Scene subcommands: homectl runs declarative compositions from outside
// the federation process, resolving services through the repository,
// calling them over SOAP, and long-polling every gateway's event hub for
// triggers.
package main

import (
	"context"
	"fmt"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"homeconnect/internal/core/events"
	"homeconnect/internal/core/scene"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/service"
)

const sceneUsage = `usage: homectl [-vsr URL] scene <command>

commands:
  load <file>                    validate a scene file, print canonical XML
  list <file>                    list the scenes in a file
  run <file> <scene> [k=v ...]   fire one scene now; k=v become trigger payload
  status <file> [duration]       arm every scene's triggers for the duration
                                 (default 30s), then print run statistics
`

func (c *ctl) sceneCmd(ctx context.Context, args []string) error {
	if len(args) < 2 {
		return errSceneUsage
	}
	switch args[0] {
	case "load":
		return c.sceneLoad(args[1])
	case "list":
		return c.sceneList(args[1])
	case "run":
		if len(args) < 3 {
			return errSceneUsage
		}
		return c.sceneRun(ctx, args[1], args[2], args[3:])
	case "status":
		d := 30 * time.Second
		if len(args) >= 3 {
			var err error
			if d, err = time.ParseDuration(args[2]); err != nil {
				return fmt.Errorf("bad duration %q: %v", args[2], err)
			}
		}
		return c.sceneStatus(ctx, args[1], d)
	}
	return errSceneUsage
}

func readScenes(path string) ([]*scene.Scene, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return scene.Decode(data)
}

func (c *ctl) sceneLoad(path string) error {
	scs, err := readScenes(path)
	if err != nil {
		return err
	}
	c.stdout.Write(scene.Encode(scs))
	fmt.Fprintf(c.stderr, "%d scene(s) valid\n", len(scs))
	return nil
}

func (c *ctl) sceneList(path string) error {
	scs, err := readScenes(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "%-20s %-9s %-6s %s\n", "SCENE", "TRIGGERS", "STEPS", "DOC")
	for _, s := range scs {
		fmt.Fprintf(c.stdout, "%-20s %-9d %-6d %s\n", s.Name, len(s.Triggers), len(s.Steps), s.Doc)
	}
	return nil
}

// soapCaller resolves scene calls through the repository and invokes them
// over the dialer — the same path as `homectl call`.
type soapCaller struct{ c *ctl }

func (sc soapCaller) Call(ctx context.Context, id, op string, args []service.Value) (service.Value, error) {
	r, err := sc.c.repo.Lookup(ctx, id)
	if err != nil {
		return service.Value{}, err
	}
	opSpec, ok := r.Desc.Interface.Operation(op)
	if !ok {
		return service.Value{}, fmt.Errorf("%s.%s: %w", id, op, service.ErrNoSuchOperation)
	}
	if err := service.ValidateArgs(opSpec, args); err != nil {
		return service.Value{}, err
	}
	return sc.c.invoke(ctx, r, opSpec, args)
}

// sceneEngine builds an engine that calls through the repository, with
// every scene in path loaded and each registered network's gateway hub
// long-polled so event triggers and publish steps work from outside the
// federation process (networks are discovered from the repository's
// service registrations). stop closes the engine and its sources.
func (c *ctl) sceneEngine(ctx context.Context, path string) (eng *scene.Engine, stop func(), err error) {
	scs, err := readScenes(path)
	if err != nil {
		return nil, nil, err
	}
	remotes, err := c.repo.Find(ctx, vsr.Query{})
	if err != nil {
		return nil, nil, fmt.Errorf("discover networks: %w", err)
	}
	eng = scene.NewEngine(soapCaller{c: c})
	var sources []*scene.PollSource
	stop = func() {
		for _, s := range sources {
			s.Close()
		}
		eng.Close()
	}
	seen := make(map[string]bool)
	for _, r := range remotes {
		network := r.Desc.Context[service.CtxNetwork]
		if network == "" || seen[network] {
			continue
		}
		u, err := url.Parse(r.Endpoint)
		if err != nil {
			continue
		}
		seen[network] = true
		src := scene.NewPollSource(&events.Client{BaseURL: u.Scheme + "://" + u.Host + "/events", HTTP: c.httpC})
		eng.AddSource(network, src)
		sources = append(sources, src)
	}
	for _, sc := range scs {
		if err := eng.Load(sc); err != nil {
			stop()
			return nil, nil, err
		}
	}
	return eng, stop, nil
}

func (c *ctl) sceneRun(ctx context.Context, path, name string, kvs []string) error {
	trigger := service.Event{Source: "homectl", Topic: "manual", Payload: make(map[string]service.Value)}
	for _, kv := range kvs {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("bad payload argument %q (want k=v)", kv)
		}
		trigger.Payload[k] = service.StringValue(v)
	}
	eng, stop, err := c.sceneEngine(ctx, path)
	if err != nil {
		return err
	}
	defer stop()
	rec, err := eng.Run(ctx, name, trigger)
	if err != nil {
		return err
	}
	for _, sr := range rec.Steps {
		out := sr.Result.Text()
		if sr.Result.IsVoid() {
			out = "ok"
		}
		if sr.Err != nil {
			out = "error: " + sr.Err.Error()
		}
		fmt.Fprintf(c.stdout, "  step %-16s %-8s attempts=%d %s\n", sr.Name, sr.Kind, sr.Attempts, out)
	}
	fmt.Fprintf(c.stdout, "scene %s: %s in %v\n", rec.Scene, rec.Outcome, rec.Latency.Round(time.Millisecond))
	return rec.Err
}

func (c *ctl) sceneStatus(ctx context.Context, path string, d time.Duration) error {
	eng, stop, err := c.sceneEngine(ctx, path)
	if err != nil {
		return err
	}
	defer stop()
	if err := eng.StartAll(); err != nil {
		return err
	}
	fmt.Fprintf(c.stderr, "scenes armed for %v...\n", d)
	time.Sleep(d)
	statuses := eng.List()
	sort.Slice(statuses, func(i, j int) bool { return statuses[i].Name < statuses[j].Name })
	fmt.Fprintf(c.stdout, "%-20s %-8s %-6s %-10s %-8s %-10s %s\n",
		"SCENE", "RUNS", "OK", "GUARDED", "FAILED", "MEAN", "LAST")
	for _, st := range statuses {
		mean := time.Duration(0)
		if st.Stats.Runs > 0 {
			mean = st.Stats.TotalLatency / time.Duration(st.Stats.Runs)
		}
		last := st.Stats.LastOutcome
		if last == "" {
			last = "-"
		}
		if st.Stats.LastError != "" {
			last += " (" + st.Stats.LastError + ")"
		}
		fmt.Fprintf(c.stdout, "%-20s %-8d %-6d %-10d %-8d %-10v %s\n",
			st.Name, st.Stats.Runs, st.Stats.Completed, st.Stats.Guarded,
			st.Stats.Failed, mean.Round(time.Millisecond), last)
	}
	return nil
}
