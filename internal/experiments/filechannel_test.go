package experiments_test

import (
	"strings"
	"testing"

	"adaptio/internal/cloudsim"
	"adaptio/internal/core"
	"adaptio/internal/corpus"
	"adaptio/internal/experiments"
)

// a5Rows runs A5 at the full 50 GB: the XEN page-cache distortion only
// manifests once writes outlast the 3 GB dirty limit several times over.
func a5Rows(t *testing.T) map[string]experiments.FileChannelRow {
	t.Helper()
	rows, err := experiments.FileChannel(experiments.FiftyGB, 2011)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]experiments.FileChannelRow{}
	for _, r := range rows {
		m[r.Platform.String()+"/"+r.Kind.String()+"/"+r.Scheme] = r
	}
	return m
}

func TestFileChannelGrid(t *testing.T) {
	rows, err := experiments.FileChannel(testVolume, 2011)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*2*5 {
		t.Fatalf("expected 20 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.CompletionSeconds <= 0 || r.DurableSeconds < r.CompletionSeconds {
			t.Errorf("%v/%v/%s: implausible times %v/%v", r.Platform, r.Kind, r.Scheme,
				r.CompletionSeconds, r.DurableSeconds)
		}
	}
	out := experiments.RenderFileChannel(rows)
	for _, want := range []string{"A5", "durable", "XEN", "DYNAMIC"} {
		if !strings.Contains(out, want) {
			t.Errorf("A5 render missing %q", want)
		}
	}
}

// TestFileChannelKVMBehavesLikeNetwork: without the cache anomaly the
// rate-based model works on file channels exactly as on network channels.
func TestFileChannelKVMBehavesLikeNetwork(t *testing.T) {
	m := a5Rows(t)
	dyn := m["KVM (Parav.)/HIGH/DYNAMIC"]
	light := m["KVM (Parav.)/HIGH/LIGHT"]
	if dyn.CompletionSeconds > light.CompletionSeconds*1.22 {
		t.Errorf("KVM/HIGH: DYNAMIC %.0f s vs best static %.0f s", dyn.CompletionSeconds, light.CompletionSeconds)
	}
	if dyn.CacheResidentGB != 0 {
		t.Error("KVM should leave nothing in a host cache")
	}
}

// TestFileChannelCompressionCuresXenCache: the extension's headline finding.
// On compressible data, compression keeps the wire rate below the disk's
// drain rate, so the XEN page cache never fills and the burst/stall
// oscillation disappears — adaptive compression inadvertently *solves* the
// problem that made the paper exclude file I/O.
func TestFileChannelCompressionCuresXenCache(t *testing.T) {
	m := a5Rows(t)
	no := m["XEN (Parav.)/HIGH/NO"]
	dyn := m["XEN (Parav.)/HIGH/DYNAMIC"]
	if no.CacheResidentGB == 0 {
		t.Error("uncompressed XEN writes should leave data in the host cache")
	}
	if dyn.CacheResidentGB != 0 {
		t.Errorf("DYNAMIC on XEN/HIGH left %.1f GB in cache; compression should keep wire below disk rate",
			dyn.CacheResidentGB)
	}
	if dyn.CompletionSeconds > no.CompletionSeconds {
		t.Errorf("DYNAMIC (%.0f s) should beat NO (%.0f s) on compressible file writes",
			dyn.CompletionSeconds, no.CompletionSeconds)
	}
}

// TestFileChannelXenDistortsDecisionsOnLowData: on incompressible data no
// level can drop the wire rate below the disk rate, so the decider keeps
// seeing phantom burst/stall rates and probes far more than on the
// undistorted KVM platform.
func TestFileChannelXenDistortsDecisionsOnLowData(t *testing.T) {
	m := a5Rows(t)
	xen := m["XEN (Parav.)/LOW/DYNAMIC"]
	kvm := m["KVM (Parav.)/LOW/DYNAMIC"]
	if xen.LevelSwitches < kvm.LevelSwitches*2 {
		t.Errorf("XEN cache should inflate probing: %d switches vs KVM's %d",
			xen.LevelSwitches, kvm.LevelSwitches)
	}
	// And the VM-visible completion time is a lie: data remains in the
	// host cache at "completion".
	if xen.CacheResidentGB <= 0 {
		t.Error("XEN/LOW run should end with unflushed cache")
	}
}

func TestRunFileTransferValidation(t *testing.T) {
	base := cloudsim.TransferConfig{
		Platform:   cloudsim.XenParavirt,
		Kind:       cloudsim.ConstantKind(corpus.High),
		TotalBytes: 1e9,
		Scheme:     core.Static(0),
		Profiles:   cloudsim.ReferenceProfiles(),
	}
	bad := base
	bad.TotalBytes = 0
	if _, err := cloudsim.RunFileTransfer(bad); err == nil {
		t.Error("zero volume accepted")
	}
	bad = base
	bad.Scheme = nil
	if _, err := cloudsim.RunFileTransfer(bad); err == nil {
		t.Error("nil scheme accepted")
	}
	bad = base
	bad.Platform = cloudsim.Platform(77)
	if _, err := cloudsim.RunFileTransfer(bad); err == nil {
		t.Error("unknown platform accepted")
	}
	if _, err := cloudsim.RunFileTransfer(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}
