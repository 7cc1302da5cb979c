package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"basevictim/internal/obs"
	"basevictim/internal/workload"
)

// Pinned result digests. Each is the SHA-256 of a run's JSON-encoded
// result (every integer statistic, the IPC values, and the Obs metrics
// snapshot) followed by the JSON-encoded decision-event ring. JSON
// writes a float64 in its shortest round-tripping form, so the IPC
// bits are pinned exactly; the result carries no accumulated floats
// (energy is kept as integer counters), so no fused-multiply-add
// contraction on any architecture can move a digest.
//
// A digest that changes means simulated behaviour changed. That is
// only acceptable in a change that means to alter results; refresh the
// constants by running the tests with -v and copying the "got" values.
var orgDigests = map[string]string{
	"uncompressed": "1f01c5809a8ca7891e6bf9699f9019ea8e0e41cf0cfacf6796da30c665993012",
	"twotag":       "e3f71a3ee65603059d29ef27de7da8b6a6da151bde27b758553a5a61548d1968",
	"twotag-mod":   "43e9043ddb6496f06238bb30ee47957f95719cc5a6829337ac2d7ad8064084bb",
	"basevictim":   "30f31309141494e31105a0b0db4b92a04fbd3634d9daf9e8d6c315e78fd0ecb7",
	"vsc2x":        "a8931968523be5bcea3e930c67194b29c0563c05bd3005a864715bd150090ee3",
}

const (
	checkedDigest = "30f31309141494e31105a0b0db4b92a04fbd3634d9daf9e8d6c315e78fd0ecb7"
	mixDigest     = "703a3f6caa2431f355b2d416ae7807e1e8c3d11f374cacfb0046eeff08f72311"
)

// observedRun returns a context carrying a fresh observer, and the
// observer so its ring can be digested after the run.
func observedRun() (context.Context, *Observer) {
	o := &Observer{Registry: obs.NewRegistry(), Ring: obs.NewRing(256)}
	return WithObserver(context.Background(), o), o
}

// digest hashes a result and its observer's ring.
func digest(t *testing.T, res any, o *Observer) string {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(res); err != nil {
		t.Fatalf("encode result: %v", err)
	}
	if err := enc.Encode(o.Ring.Events()); err != nil {
		t.Fatalf("encode ring: %v", err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func checkDigest(t *testing.T, what, got, want string) {
	t.Helper()
	t.Logf("%s digest: got %s", what, got)
	if got != want {
		t.Errorf("%s result digest changed:\n got %s\nwant %s", what, got, want)
	}
}

// TestResultDigest pins every organization's observed single-thread
// result on the LLC-sensitive trace.
func TestResultDigest(t *testing.T) {
	p := sensitiveTrace(t)
	for _, org := range OrgKinds() {
		t.Run(org, func(t *testing.T) {
			ctx, o := observedRun()
			res, err := RunSingleCtx(ctx, p, quickCfg(OrgKind(org)))
			if err != nil {
				t.Fatal(err)
			}
			if res.Obs == nil {
				t.Fatal("no obs snapshot attached; the digest would not cover it")
			}
			checkDigest(t, org, digest(t, res, o), orgDigests[org])
		})
	}
}

// TestResultDigestChecked pins a run under the full lockstep checker,
// where the hierarchy sees the organization through a check wrapper.
func TestResultDigestChecked(t *testing.T) {
	cfg := quickCfg(OrgBaseVictim)
	cfg.Check = "full"
	ctx, o := observedRun()
	res, err := RunSingleCtx(ctx, sensitiveTrace(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "checked", digest(t, res, o), checkedDigest)
}

// TestResultDigestMix pins a 4-thread multi-program mix: shared-LLC
// contention, back-invalidation broadcast and per-core address offsets.
func TestResultDigestMix(t *testing.T) {
	var mix [4]workload.Profile
	for i, name := range []string{"mcf.p1", "soplex.p1", "lbm.p1", "milc.p1"} {
		p, ok := workload.ByName(workload.Suite(), name)
		if !ok {
			t.Fatalf("trace %s missing", name)
		}
		mix[i] = p
	}
	cfg := quickCfg(OrgBaseVictim)
	cfg.Instructions = 60_000
	ctx, o := observedRun()
	res, err := RunMixCtx(ctx, mix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "mix", digest(t, res, o), mixDigest)
}
