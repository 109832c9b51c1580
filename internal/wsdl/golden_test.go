// Renderer golden: Generate's bytes for a fixed set of interfaces and
// locations. The file was recorded by the renderer that built every
// document from scratch, before Generate memoized its renders, so the
// memo is held to those bytes. Run with -update-golden to rewrite it
// after an intended change to the generated WSDL.
package wsdl

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"homeconnect/internal/service"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/generate.golden")

// echoInterface is the shape perfbench's echo services publish.
func echoInterface() service.Interface {
	return service.Interface{Name: "Echo", Operations: []service.Operation{
		{Name: "Ping", Output: service.KindVoid},
		{Name: "EchoInt", Inputs: []service.Parameter{{Name: "v", Type: service.KindInt}}, Output: service.KindInt},
		{Name: "EchoStr", Inputs: []service.Parameter{{Name: "s", Type: service.KindString}}, Output: service.KindString},
		{Name: "EchoBytes", Inputs: []service.Parameter{{Name: "b", Type: service.KindBytes}}, Output: service.KindBytes},
	}}
}

// switchInterface is the one-operation device shape perfbench registers
// in bulk.
func switchInterface() service.Interface {
	return service.Interface{Name: "Switch", Operations: []service.Operation{
		{Name: "Set", Inputs: []service.Parameter{{Name: "on", Type: service.KindBool}}, Output: service.KindVoid},
	}}
}

// awkwardInterface carries every character class the escaper treats
// specially in its names and docs: markup characters, whitespace
// escapes, non-ASCII text and invalid UTF-8.
func awkwardInterface() service.Interface {
	return service.Interface{
		Name: `Odd<&>"'Ünïcode`,
		Doc:  "tabs\tnew\nlines\r and <b>&amp;</b> \"quoted\" 'single' — ✓ \xff\xfe bad",
		Operations: []service.Operation{
			{Name: `Get"It'`, Doc: "returns <nothing> & more \x80", Output: service.KindString},
			{Name: "Sét", Inputs: []service.Parameter{
				{Name: "a<b", Type: service.KindFloat},
				{Name: "c&d", Type: service.KindBool},
				{Name: "\xc3(", Type: service.KindBytes},
			}, Output: service.KindInt},
		},
	}
}

// goldenRenders is the fixed script of (interface, location) pairs.
func goldenRenders() []struct {
	it  service.Interface
	loc string
} {
	locs := []string{
		"http://127.0.0.1:9/services/dev1:d-00001",
		"",
		`http://h/s?a=1&b=<2>&c="3"&d='4'`,
		"http://hôte/\xff\tpath\n",
	}
	var out []struct {
		it  service.Interface
		loc string
	}
	for _, it := range []service.Interface{echoInterface(), switchInterface(), awkwardInterface(), vcrInterface()} {
		for _, loc := range locs {
			out = append(out, struct {
				it  service.Interface
				loc string
			}{it, loc})
		}
	}
	return out
}

// renderGolden renders the script, twice over so a memo's hits are
// checked as well as its misses, and failed renders as their errors.
func renderGolden() []byte {
	var b bytes.Buffer
	for pass := 0; pass < 2; pass++ {
		for i, r := range goldenRenders() {
			doc, err := Generate(r.it, r.loc)
			fmt.Fprintf(&b, "=== %d.%d %q at %q\n", pass, i, r.it.Name, r.loc)
			if err != nil {
				fmt.Fprintf(&b, "error: %v\n", err)
				continue
			}
			b.Write(doc)
			b.WriteByte('\n')
		}
	}
	bad := switchInterface()
	bad.Operations = append(bad.Operations, bad.Operations[0])
	_, err := Generate(bad, "http://x/")
	fmt.Fprintf(&b, "=== duplicate operation\nerror: %v\n", err)
	return b.Bytes()
}

func TestGenerateGolden(t *testing.T) {
	path := filepath.Join("testdata", "generate.golden")
	got := renderGolden()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to record)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("generated WSDL differs from %s at line %d:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("generated WSDL differs from %s in length: %d lines, want %d", path, len(gl), len(wl))
	}
}
