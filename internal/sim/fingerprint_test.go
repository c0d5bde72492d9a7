package sim

import "testing"

func TestFingerprintDeterministic(t *testing.T) {
	a := DefaultConfig(4)
	b := DefaultConfig(4)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical configs fingerprint differently")
	}
	if got := a.Fingerprint(); got != a.Fingerprint() {
		t.Fatalf("fingerprint not stable across calls: %s", got)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := DefaultConfig(4)
	mutations := map[string]func(*Config){
		"cores":        func(c *Config) { c.Cores = 8 },
		"llc-sets":     func(c *Config) { c.LLCSets /= 2 },
		"llc-ways":     func(c *Config) { c.LLCWays = 24 },
		"llc-policy":   func(c *Config) { c.LLCPolicy = "lru" },
		"seed":         func(c *Config) { c.Seed++ },
		"policy-seed":  func(c *Config) { c.PolicyOpt.Seed++ },
		"forced-brrip": func(c *Config) { c.PolicyOpt.ForcedBRRIP = []bool{true, false, false, false} },
		"adapt-ranges": func(c *Config) { c.PolicyOpt.AdaptRanges.HPMax = 5 },
		"mem-banks":    func(c *Config) { c.Mem.Banks = 16 },
		"arb-service":  func(c *Config) { c.Arb.ServiceCycles = 8 },
		"prefetch":     func(c *Config) { c.NextLinePrefetch = false },
	}
	ref := base.Fingerprint()
	seen := map[string]string{"": ref}
	for name, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		fp := cfg.Fingerprint()
		if fp == ref {
			t.Errorf("%s: mutation did not change the fingerprint", name)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s collides with %q", name, prev)
		}
		seen[fp] = name
	}
}

// TestConfigFingerprintGolden pins the digest of the Table 3 16-core
// machine. Config fingerprints key every memoized result (schedule.Job.Key
// and the .simcache segments), so adding or removing an execution-only
// field (tagged `fingerprint:"-"`) must leave this digest — and with it
// every stored result — valid.
func TestConfigFingerprintGolden(t *testing.T) {
	const want = "5a092aec3cfcd6f6ccac983cad444d01ebcd92e7d5e0580ae014210e0b0cccda"
	if got := DefaultConfig(16).Fingerprint(); got != want {
		t.Fatalf("DefaultConfig(16) fingerprint drifted:\n  got  %s\n  want %s", got, want)
	}
}

// TestFingerprintForcedBRRIPLength distinguishes an absent mask from an
// all-false mask and masks of different lengths (slice length is encoded).
func TestFingerprintForcedBRRIPLength(t *testing.T) {
	a := DefaultConfig(2)
	b := DefaultConfig(2)
	b.PolicyOpt.ForcedBRRIP = []bool{false, false}
	c := DefaultConfig(2)
	c.PolicyOpt.ForcedBRRIP = []bool{false, false, false}
	fps := map[string]bool{a.Fingerprint(): true, b.Fingerprint(): true, c.Fingerprint(): true}
	if len(fps) != 3 {
		t.Fatalf("mask variants collide: %d distinct fingerprints, want 3", len(fps))
	}
}
