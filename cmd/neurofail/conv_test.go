package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/activation"
	"repro/internal/cliutil"
	"repro/internal/conv"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/store"
)

// TestConvTrainInjectBoundsRoundTrip drives conv models through the CLI
// end to end for both architectures: train, reload, certify with
// bounds, and inject every registered fault model through the native
// engine (inject itself errors if a measurement ever exceeds its
// bound).
func TestConvTrainInjectBoundsRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("trains conv nets")
	}
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "artifacts")
	for _, arch := range []string{"1d", "2d"} {
		netPath := filepath.Join(dir, "conv-"+arch+".json")
		if err := cmdConvTrain([]string{
			"-arch", arch, "-width", "10", "-rows", "6", "-cols", "6",
			"-fields", "3", "-filters", "2", "-epochs", "30", "-samples", "120",
			"-seed", "3", "-out", netPath, "-store", storeDir,
		}); err != nil {
			t.Fatalf("conv train %s: %v", arch, err)
		}
		m, err := cliutil.LoadModel(netPath)
		if err != nil {
			t.Fatalf("reload %s: %v", arch, err)
		}
		wantArch := conv.Arch1D
		if arch == "2d" {
			wantArch = conv.Arch2D
		}
		if conv.ArchOf(m) != wantArch {
			t.Fatalf("round-tripped arch %q, want %q", conv.ArchOf(m), wantArch)
		}

		if err := cmdBounds([]string{
			"-net", netPath, "-faults", "1", "-c", "1", "-eps", "2", "-epsprime", "0.05",
		}); err != nil {
			t.Errorf("bounds %s: %v", arch, err)
		}

		for _, name := range fault.ModelNames() {
			if err := cmdInject([]string{
				"-net", netPath, "-faults", "1", "-mode", name,
				"-c", "0.6", "-value", "0.7", "-prob", "0.5", "-bits", "8", "-bit", "6",
			}); err != nil {
				t.Errorf("inject %s -mode %s: %v", arch, name, err)
			}
		}

		// Shared kernel-value faults through the native engine.
		if err := cmdInject([]string{
			"-net", netPath, "-kernels", "1", "-mode", "crash",
		}); err != nil {
			t.Errorf("inject %s -kernels: %v", arch, err)
		}
	}

	// Both trained models landed in the artifact store as typed conv
	// artifacts.
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	entries := st.List(store.KindConv)
	if len(entries) != 2 {
		t.Fatalf("store holds %d conv artifacts, want 2", len(entries))
	}
	for _, e := range entries {
		if _, _, err := st.Model(e.ID); err != nil {
			t.Errorf("stored conv artifact %s unreadable: %v", e.ID, err)
		}
	}
}

// TestInjectKernelsNeedsConvModel pins the -kernels guard: shared
// kernel values exist only in conv models, so a dense network is
// refused.
func TestInjectKernelsNeedsConvModel(t *testing.T) {
	netPath := filepath.Join(t.TempDir(), "net.json")
	net := nn.NewRandom(rng.New(1), nn.Config{InputDim: 1, Widths: []int{4}, Act: activation.NewSigmoid(1)}, 1)
	if err := cliutil.SaveNetwork(netPath, net); err != nil {
		t.Fatal(err)
	}
	err := cmdInject([]string{"-net", netPath, "-kernels", "1"})
	if err == nil || !strings.Contains(err.Error(), "conv model") {
		t.Fatalf("inject -kernels on a dense network: %v, want a conv-model error", err)
	}
}

// TestStoreAddAcceptsConvDocuments extends `store add` coverage: a conv
// document ingested by path round-trips through the generic loader.
func TestStoreAddAcceptsConvDocuments(t *testing.T) {
	dir := t.TempDir()
	netPath := filepath.Join(dir, "conv.json")
	if err := cmdConvTrain([]string{
		"-arch", "1d", "-width", "8", "-fields", "3", "-filters", "1",
		"-epochs", "2", "-samples", "20", "-out", netPath,
	}); err != nil {
		t.Fatalf("conv train: %v", err)
	}
	if _, err := os.Stat(netPath); err != nil {
		t.Fatal(err)
	}
	storeDir := filepath.Join(dir, "store")
	if err := cmdStore([]string{"add", "-dir", storeDir, "-net", netPath}); err != nil {
		t.Fatalf("store add: %v", err)
	}
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(st.List(store.KindConv)); got != 1 {
		t.Fatalf("store holds %d conv artifacts, want 1", got)
	}
}
