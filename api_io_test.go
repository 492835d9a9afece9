package eigenpro

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestPublicDataIO(t *testing.T) {
	ds := SUSYLike(50, 4)
	var csv bytes.Buffer
	if err := WriteCSV(&csv, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&csv, "susy")
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != ds.N() || back.Dim() != ds.Dim() {
		t.Fatal("csv round trip changed shape")
	}

	var lib bytes.Buffer
	if err := WriteLibSVM(&lib, ds); err != nil {
		t.Fatal(err)
	}
	back2, err := ReadLibSVM(&lib, "susy", ds.Dim())
	if err != nil {
		t.Fatal(err)
	}
	if back2.N() != ds.N() {
		t.Fatal("libsvm round trip changed size")
	}
	if _, err := ReadLibSVM(strings.NewReader("garbage"), "x", 0); err == nil {
		t.Fatal("garbage must error")
	}
}

func TestPublicSerialization(t *testing.T) {
	ds := SUSYLike(120, 5)
	res, err := Train(Config{Kernel: LaplacianKernel(4), Epochs: 2, Seed: 5}, ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveModel(&buf, res.Model); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if MSE(loaded.Predict(ds.X), res.Model.Predict(ds.X)) != 0 {
		t.Fatal("reloaded model predicts differently")
	}

	var sbuf bytes.Buffer
	if err := SaveSpectrum(&sbuf, res.Spectrum); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpectrum(&sbuf); err != nil {
		t.Fatal(err)
	}
}

func TestPublicDeviceGroup(t *testing.T) {
	// A base device small enough that its m_max stays below n, so a
	// larger group m_max is not clamped away (as in bench.MultiGPU).
	base := SimTitanXp()
	base.ParallelOps /= 1000
	g, err := NewDeviceGroup(base, 4, DeviceGroupOptions{
		SyncOverhead: 100 * time.Microsecond, ScalingEfficiency: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.ParallelOps <= base.ParallelOps {
		t.Fatal("group capacity did not grow")
	}

	// Multi-device training is Train on the group: its device time is
	// charged, and its m_max is larger than the single device's.
	t.Run("train", func(t *testing.T) {
		ds := SUSYLike(200, 6)
		cfg := Config{Kernel: GaussianKernel(4), Device: base, Epochs: 2, Seed: 6}
		single, err := Train(cfg, ds.X, ds.Y)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Device = g
		grp, err := Train(cfg, ds.X, ds.Y)
		if err != nil {
			t.Fatal(err)
		}
		if grp.SimTime <= 0 {
			t.Fatal("group device time not charged")
		}
		if grp.Params.MMax <= single.Params.MMax {
			t.Fatalf("group m_max %d not above single %d", grp.Params.MMax, single.Params.MMax)
		}
	})
}

func TestPublicBandwidthSelection(t *testing.T) {
	ds := SUSYLike(200, 7)
	ladder := GaussianBandwidthLadder(ds.X, 3, 7)
	if len(ladder) != 3 {
		t.Fatalf("ladder size %d", len(ladder))
	}
	best, scored, err := SelectBandwidth(ladder, ds.X, ds.Y, ds.Labels,
		BandwidthConfig{Subsample: 120, Folds: 2, Epochs: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if best == nil || len(scored) != 3 {
		t.Fatal("selection incomplete")
	}
}

func TestPublicMaternKernels(t *testing.T) {
	x := []float64{0, 1}
	if Matern32Kernel(2).Eval(x, x) != 1 || Matern52Kernel(2).Eval(x, x) != 1 {
		t.Fatal("matern kernels not normalized")
	}
}
