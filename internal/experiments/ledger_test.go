package experiments

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"lauberhorn/internal/transport"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger from the current tables")

const ledgerPath = "testdata/ledger"

// ledgerKey keys a ledger line by its first two fields: experiment ID
// and transport name.
func ledgerKey(line string) string {
	f := strings.Fields(line)
	if len(f) < 2 {
		return line
	}
	return f[0] + " " + f[1]
}

// TestLedger pins every experiment's behaviour under every registered
// transport: the SHA-256 of its tables exactly as lhbench prints them,
// the table count, and the simulator events it fired. A change that
// claims "same tables" leaves testdata/ledger byte-identical; one that
// changes a table or an event count rewrites it with -update and
// explains every changed line.
func TestLedger(t *testing.T) {
	if raceEnabled {
		t.Skip("the ledger reruns the whole suite per transport; CI runs it in a non-race step")
	}
	prev := transportOverride
	defer SetTransport(prev)

	var b strings.Builder
	b.WriteString("# experiment transport sha256(tables as lhbench prints them) tables events\n")
	for _, tr := range transport.All() {
		SetTransport(tr.Kind)
		for _, r := range (&Runner{}).Run(All()) {
			if r.Err != nil {
				t.Fatalf("%s under %s: %v", r.Experiment.ID, tr.Name, r.Err)
			}
			h := sha256.New()
			for _, tb := range r.Tables {
				fmt.Fprintln(h, tb.String())
			}
			fmt.Fprintf(&b, "%s %s %x %d %d\n", r.Experiment.ID, tr.Name, h.Sum(nil), len(r.Tables), r.Events)
		}
	}
	got := b.String()

	if *updateLedger {
		if err := os.WriteFile(ledgerPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := string(raw)
	if got == want {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(want, "\n"), "\n")
	wantByKey := map[string]string{}
	for _, l := range wantLines {
		wantByKey[ledgerKey(l)] = l
	}
	gotKeys := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSuffix(got, "\n"), "\n") {
		k := ledgerKey(l)
		gotKeys[k] = true
		if w, ok := wantByKey[k]; !ok {
			t.Errorf("%s: not in the ledger\n  got  %s", k, l)
		} else if w != l {
			t.Errorf("%s: changed\n  want %s\n  got  %s", k, w, l)
		}
	}
	for _, w := range wantLines {
		if k := ledgerKey(w); !gotKeys[k] {
			t.Errorf("%s: in the ledger but not produced\n  want %s", k, w)
		}
	}
	if !t.Failed() {
		t.Error("ledger differs only in line order")
	}
}
