package control

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"

	"prepare/internal/detector"
	"prepare/internal/prevent"
	"prepare/internal/simclock"
	"prepare/internal/telemetry"
)

// The digests in this file were recorded at commit dd30935 from the
// per-VM scalar tick (the batch knob's off position), the oracle the
// columnar tick had been pinned DeepEqual to since PR 6. That path and
// its knob are gone; the one remaining tick must keep reproducing what
// it produced. The rows with a detector column were recorded at a347e8d,
// before internal/unsupervised, the four median/MAD baselines and the
// adapter stack in front of kmeans/zscore were folded into one
// implementation each. A digest that changes means the alert, prevention-step or
// telemetry-event stream changed — update the constant only for a
// change that is meant to alter behaviour, and say so in the PR. The
// retrain rows (ewma and zrobust refitting every 100 s from an 80-sample
// ring that wraps before the run ends) were recorded at 0ff6faf, before
// the forecast-error detectors learned to refit in place from the ring.

// streamDigests are the SHA-256 digests of one run's three canonical
// streams. Floats are hashed by their IEEE-754 bits.
type streamDigests struct {
	alerts, steps, events string
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// emptyStream is the digest of a stream with no records: zscore on one
// VM and zrobust on one VM under chaos stay silent in the synthetic
// world, and must keep doing so.
const emptyStream = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

// skipUnlessAMD64 skips a golden test on architectures whose compilers
// may fuse multiply-adds, which changes the low bits of scores.
func skipUnlessAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests were recorded on amd64, not %s", runtime.GOARCH)
	}
}

func hashAlert(h hash.Hash, tenant string, a AlertEvent) {
	fmt.Fprintf(h, "%s|%d|%s|%016x|%t\n", tenant, a.Time.Seconds(), a.VM, math.Float64bits(a.Score), a.Predicted)
}

func hashStep(h hash.Hash, tenant string, s prevent.Step) {
	fmt.Fprintf(h, "%s|%d|%s|%d|%d|%s\n", tenant, s.Time.Seconds(), s.VM, int(s.Kind), int(s.Resource), s.Detail)
}

func digestController(ctl *Controller, reg *telemetry.Registry) streamDigests {
	ha, hs, he := sha256.New(), sha256.New(), sha256.New()
	for _, a := range ctl.Alerts() {
		hashAlert(ha, "", a)
	}
	for _, s := range ctl.Steps() {
		hashStep(hs, "", s)
	}
	for _, e := range reg.Snapshot().Events {
		fmt.Fprintf(he, "%d|%d|%s|%s|%s|%s", e.Seq, e.SimTime, e.VM, e.Stage, e.Kind, e.Detail)
		for _, f := range e.Fields {
			fmt.Fprintf(he, "|%s=%016x", f.Key, math.Float64bits(f.Value))
		}
		fmt.Fprintln(he)
	}
	return streamDigests{alerts: hexSum(ha), steps: hexSum(hs), events: hexSum(he)}
}

// The retrain rows' knobs: four refits after training at 300 s, the
// later ones from a ring that has already dropped the oldest samples.
const (
	retrainIntervalS = 100
	retrainWindow    = 80
)

// TestTickGolden drives the synthetic world at three fleet sizes, clean
// and under 5% chaos (metric drops, stuck sensors, NaNs, actuator
// faults), under every detector family, and checks all three streams
// against the recorded digests. The retrain rows also pin periodic
// refits from the series ring.
func TestTickGolden(t *testing.T) {
	skipUnlessAMD64(t)
	for _, tc := range []struct {
		detector string // ParseSpec syntax; "" is the default (tan)
		nVMs     int
		until    int64 // the 100-VM runs stop earlier to stay fast; they still cross two post-training episodes
		chaos    float64
		retrain  bool // refit every retrainIntervalS from a retrainWindow-sample ring
		want     streamDigests
	}{
		{"", 1, 700, 0, false, streamDigests{
			alerts: "d1aa284f92abfe5875c8ce337a9f4c907930a3fdaf88609fb3f3b788c654bb12",
			steps:  "2c89756406bc10910d97de033c273ecb030972f9e209014889881ebd514d9311",
			events: "f11a1bc90a8e5ca5293e0a22547bdffd9189f50245ee8d886f455b554c20244e",
		}},
		{"", 7, 700, 0, false, streamDigests{
			alerts: "56d7d3a796b17d27934e756010723cd57d444ca5a851c465bb4f65c35810b335",
			steps:  "40d1c86e890a6a71871d687c3aa3542439d8951dd9d88355fdf9e7d1a3e32791",
			events: "0da2f462772bd0edd7cf8a7b3a3c4283cabfee77e0c5ae9e2ee1d5f976769c93",
		}},
		{"", 100, 550, 0, false, streamDigests{
			alerts: "09e3db9dcd85aef82d496b9b401dab7c4b29f645582cd72ba93da59f78d3b79f",
			steps:  "8064e274a8f5bf4db33b863e983bdc8aaa9fcaa6ffbaf9af6b8ae676f130365b",
			events: "a8c31fe8e151dc594d2b251c8bd80c079e20a003577119810e97e2b169a63f6a",
		}},
		{"", 1, 700, 0.05, false, streamDigests{
			alerts: "cc63af39abb6adc2f1a234114ef611812abafb7931f6728f956ac0b41f23ab30",
			steps:  "d9c27703c541473fbd374c51285134b62204bb3a7513af87e54ccd4090f9ad80",
			events: "dc3dbd6ec7ce3ae409e8d3181f56f8c926febe5153adb4fbae088e9607c6414b",
		}},
		{"", 7, 700, 0.05, false, streamDigests{
			alerts: "4ad8851627004426fc92a70753ea50438efdb00306c19c24dd0d7f0d674f58d5",
			steps:  "a7b42a8a7fbe484ad98220b8d7099a399cd791ba7e220a80eeb6eab9ee2b4103",
			events: "294bcbf9f265354b1f2da86385ceec45f1d7386d84061aa7836656c7bff979c4",
		}},
		{"", 100, 550, 0.05, false, streamDigests{
			alerts: "56516b91c6261dcd4d48d1e7c21e0f8992385ab38a0d6fd96e4bb58256bcb696",
			steps:  "67f22f733adb6307e4cd966865b6fcdc7dba55e341b4c601a035a288b17e3bd6",
			events: "bb7c8e9a13ce242ba566f17a5991c548bf22941ca0b9d9a00f6a41666d700be6",
		}},
		{"kmeans", 1, 700, 0, false, streamDigests{
			alerts: "dd4655b5451c40a67bb16be7a9bcf1d7707a8c8fafe274dd966326b93d559a31",
			steps:  "0e50a71a49d992888bd3c1228556f59e9e5e6971934a1c3e1a3bd439609d51bf",
			events: "f419d26326dbd75cd4248ba8af379357e661b856068f99e04b04c7daa55eac96",
		}},
		{"kmeans", 1, 700, 0.05, false, streamDigests{
			alerts: "095cf0cf406903fcf5aebd65b6b14f3e81c5622e60051bfab5ee2501c0cee20d",
			steps:  "b15d146f67ec4dca8db8ba380ac8f65ee1857d7024dafd51b2cd23161156c3c6",
			events: "ddb8183f0688edf5eb527867bb4b4134bc2e195e27009e9a7a36f1b3b86185f0",
		}},
		{"kmeans", 7, 700, 0, false, streamDigests{
			alerts: "a34dc4b6678dfef394a3e89f1db8d3fd8d15ae6906236ccfdfe89dc6f010aae6",
			steps:  "edbe7952acda133666273962d4c98a50b36b169f2c584450a851f2b807f40690",
			events: "31ccf2a6914f5056151376c00cedf0338ce7e6d364552e9b9b9154886a31c17b",
		}},
		{"kmeans", 7, 700, 0.05, false, streamDigests{
			alerts: "eea70b8828b695b60016e3cebe0241c3e793f909aa21c1c90c3c0ed7f0bce5d5",
			steps:  "b06a36ec13b92c438920864d1a67708ca90d2a377a6a56a6b9419fae3bf95619",
			events: "1a87aee62bbddbb33288b4175b98d96cf4655c0bfa911968139c040e3c3e36e5",
		}},
		{"zscore", 1, 700, 0, false, streamDigests{
			alerts: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			steps:  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			events: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		}},
		{"zscore", 1, 700, 0.05, false, streamDigests{
			alerts: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			steps:  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			events: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		}},
		{"zscore", 7, 700, 0, false, streamDigests{
			alerts: "e770dca77b6a476f4fca799450e58dd416e02e9edd6e263ca6871128e13bcf7f",
			steps:  "7563f142b61894323b91afb1b3558e742efd4b5ed1cfcdb58aca9bed5d018a69",
			events: "a6ade10a75c373e6e37108ff943e96ca478eab722be5dee09bea387e5158b2b1",
		}},
		{"zscore", 7, 700, 0.05, false, streamDigests{
			alerts: "6cf9fa64568260f24e7995526a6e4c792346fbd8005b71cf5e315bba7e203f0d",
			steps:  "2ef9fbd89f771b82468098063d1ac6660b77e43608f372ed41fafc8dc6ce53ae",
			events: "9c97c20939a3d590abf544ce1e7f8c4b9b82b66d72b8a238d7c6e866026ab87a",
		}},
		{"ewma", 1, 700, 0, false, streamDigests{
			alerts: "8cb431f4e8abbe798f37bab8b2fbcd1b5f70caa717b70612fa5871aaff7ec81c",
			steps:  "de18067021ee48c1d9a5945f97fc798d62b34aa130c5f73207208bc42a6494f2",
			events: "bcd6ed794158eae30a9eff1e421b60e9feaff259f4b3955a5a841266dc1ce4ea",
		}},
		{"ewma", 1, 700, 0.05, false, streamDigests{
			alerts: "f98b8f2e23a5b2ad37d00e32889b5ee4fc9aff6a3e5c03a10e5fa2d92c681e47",
			steps:  "bc999998467f06012dcb5db30efdd83926b82f91d465f0048bffa7de87493319",
			events: "7cc1a06b10ae86c4a86c2dd37b8cb462ab1f7ad14d29974ae55583dbd445453b",
		}},
		{"ewma", 7, 700, 0, false, streamDigests{
			alerts: "c2059e338207d9cee2056f4b44c06f062958ac6ddcee02b55bc31fb000735244",
			steps:  "51f40ffb8401326eac4de84ecdab4039331329d95eea3b889e4c26af2e611a25",
			events: "8c879a366606b6634387fa85fa8afab5ac10ce9982d8f1414bbbc2bff912935a",
		}},
		{"ewma", 7, 700, 0.05, false, streamDigests{
			alerts: "6cd922c4a74c89ffffbff7dc856c78965e542fe8809944d208a085cb049f152b",
			steps:  "ebcb1f96b689b5559d8b3b6a628f07378000b635b2703b954912f900376461fa",
			events: "e7f39a3b65c408749eeee3a6f72eb3fada97ced2cf99f6e1fc10ec3224cef375",
		}},
		{"zrobust", 1, 700, 0, false, streamDigests{
			alerts: "01d6a140315b200846393752afdc4c0cc505e873640dba1aa200eb0af2a7c269",
			steps:  "3b91db0ded5a8b2a4301bae50800628aecbb21a532e8d7a516ed952b456868b4",
			events: "08871a9c7001288a4c6d8f1786ca285c8fb887e169250d7609c7dd433b763c27",
		}},
		{"zrobust", 1, 700, 0.05, false, streamDigests{
			alerts: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			steps:  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			events: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		}},
		{"zrobust", 7, 700, 0, false, streamDigests{
			alerts: "b1b9624848f9a1327e7d283cce64f7f2218a40bd7e67214d56c3ede4e819af1c",
			steps:  "0bf46f0a332e70f6a6c3dbd8bd038474d2b242ccfaf89c191406c776836e0da6",
			events: "75d04bcba5531316e0f9f64c17718a41f3d75b9915901e1d288ea71cb4b67e88",
		}},
		{"zrobust", 7, 700, 0.05, false, streamDigests{
			alerts: "4960c79e45638450315b54ebdbc08709d85091538a71769b158d228b93d41bc1",
			steps:  "4845d2c045d08e04c2a3c2e5bd6811db92e5ff13bceb72fac74d3cd93f347736",
			events: "15978ed25bc1b4756cd368ea16c1e13d596278c944c35d818efe075b3e3d6b21",
		}},
		{"ensemble:tan+kmeans", 1, 700, 0, false, streamDigests{
			alerts: "7bcbef1a8b1f96aa42112869afe085cf2d8b747cc3478e9c828425bbf3ec563a",
			steps:  "d4defce427f486040e2fc7f245d233912eaf09e9257e70991b6a1ca652bd65af",
			events: "f408975ff4e24092a706f1e374afd778983849ae8c65105795411fa50d243826",
		}},
		{"ensemble:tan+kmeans", 1, 700, 0.05, false, streamDigests{
			alerts: "7162dab36aec38798f11e1d98b27a8bc93de7274a4ce3406b928534dfb3de5a0",
			steps:  "456ab82d9a9102b94eb44f0380866687787e5551fe81ec8d2d9ce57a74d95e31",
			events: "9a4ca4650efbb900bf5c2dab916572502be14107733248786b619097f262acc8",
		}},
		{"ensemble:tan+kmeans", 7, 700, 0, false, streamDigests{
			alerts: "8c42c7f00657eb52d815d137be772265b8647d5053f7f87d88813db5c3515b22",
			steps:  "68d70e1c7bfed3eea6e1ec9c6b86ce2ab1119023f16099dc3bae7f3c80bdcc50",
			events: "483261e0773e82e7376977f9c12a2c90253716f9ae69bf638d943f27239aec30",
		}},
		{"ensemble:tan+kmeans", 7, 700, 0.05, false, streamDigests{
			alerts: "10c9ba34fc08985f5ec6343943c4e6852685f14eef6fe7688f431d0bc0bbd23b",
			steps:  "8b804db4c164dd3ee0f5ac9ae51ceeba1ea9f637f5a8990407727bce88ac0384",
			events: "78e9cd8ab2d1594be8a00e4e97030536ed7a87bb6e082421e8e1a68d8f74a403",
		}},
		{"ewma", 1, 700, 0, true, streamDigests{
			alerts: "732cfc3c3bd866c30a1469014361023980f4943481658db3e5e824f182f776a0",
			steps:  "4a112a0305c9b14af5d406107afd885773e368a7916e464b9321e1c1db7f6ec1",
			events: "7e73d21ac7a757aa56c0af39213b4fdbe151b1a13bbceefd362be5d90a2169d7",
		}},
		{"ewma", 1, 700, 0.05, true, streamDigests{
			alerts: "94d53fb231534cbc31dac536ffea83f898672999f7ac4e61fbb85e51da953fb8",
			steps:  "42cdb039f83b82317a443c8a33c104c169468c86b04210040a10bd2aa5c18d49",
			events: "c0176368c20c9f108fd000fc4cd0c01adbe634d1419b1cb5ceefedeb3ed2ef82",
		}},
		{"ewma", 7, 700, 0, true, streamDigests{
			alerts: "f547da367c819ee368f21664f3a700f4fd9fc7cb4893880bc61ef82b69b43181",
			steps:  "53f3dc8bee2a0ab10870679970e649d312c18b63a00a11375606a77b1310892a",
			events: "135311a65c760bf7f7487cce72843d4117efc0d2744ec6a0520440d20ea1384d",
		}},
		{"ewma", 7, 700, 0.05, true, streamDigests{
			alerts: "d88c3a251e05e9ea3e1263696cf3a63e8c17bf0b3dea6d4488f120eade75fb9f",
			steps:  "c74436d9ca1daa8a5b8b1ec8da8448818d91c89011181243d3f48dcdbf825dc2",
			events: "21777c358fdd52018ef4f27c7d3019b42076357edbda434f362cdae3993d5237",
		}},
		{"zrobust", 1, 700, 0, true, streamDigests{
			alerts: "11c987017a3e87cb224f19952b3db2dc3c4043826156a2caaae656c0284bdeac",
			steps:  "58c4426bedd429b175938b1c08b0789ff938090cff0709b23fac1fccb47ade5d",
			events: "4dba0dff353fba7c43ea49ce0e1e05e53de9843db0cc38f715c2338573354b7b",
		}},
		{"zrobust", 1, 700, 0.05, true, streamDigests{
			alerts: "9588ede3342586ef8a235f5800a14339b5c205728c4575d8e2abdbc2131fe939",
			steps:  "599418e5f7103c869fd4c0fc6c45d5a0afe4c02721c262bdc5959e7235ccf99a",
			events: "3630351be7c2458b3d3fda6db9502a0c2189d4f711d5d3e7a6c5e6d1f67fc6b0",
		}},
		{"zrobust", 7, 700, 0, true, streamDigests{
			alerts: "90c743c4badd5402ef4d2791c784a36030543d4aadb4558eac65ab34dd7184c5",
			steps:  "cc27ff88ac9f40521837d9e58a578c4a62ed01c9d8ac9eedfbde19389431ed2c",
			events: "13d2f65fd2336a6547b2d04db873e6197c7e6c1dbd62dfbfced1cb8f1d2f55b9",
		}},
		{"zrobust", 7, 700, 0.05, true, streamDigests{
			alerts: "7d00ff9745fa04bcdcd4cc0844c70f5123c9a64e8ab219121ef479dfc4ea3d4f",
			steps:  "7ae32ebdbe1f2e44a0509a1c4a332179ecf1fc31f232fbec15bdd4e986d95d3c",
			events: "237b89062c41897a0e4450b8d5018f6a11ed9bbf29b86655443caf2b0f505e59",
		}},
		{"kmeans", 7, 700, 0.05, true, streamDigests{
			alerts: "62626a4a89bb1862ac940ea3c2a64b3f8eb6c1b6533aab9ee0006c1a429286ac",
			steps:  "ab2ad8c9996d63f13501b3660fea121efed8a8c724a714c9aec510b36c7b94ff",
			events: "97896ac4185cb1979409312f37056bb8c533edc9c1da5d7dc2320cdb0cb57d28",
		}},
		{"zscore", 7, 700, 0.05, true, streamDigests{
			alerts: "4a908f7709de4cc4ce0b366cd98888ed5e46b60d9979d5af1c10e9033d024f65",
			steps:  "b2b5e97c0039e857a1c72947acff3748d1e05b6f6a85d7ebe428013114bdfb9f",
			events: "edd337c102fc46f341f9aea9c280bd740394d3853fbe7cf143831f04a96bb659",
		}},
		{"ensemble:tan+kmeans", 7, 700, 0.05, true, streamDigests{
			alerts: "19b49bb1541b283040e0394667bf4a872ef835a34cf38881309c4bd05a899745",
			steps:  "172c93cef173151e0211bce3c3a5715a295ef37b68fd4adb4545f4545be384f9",
			events: "912f641ddf52d4699f6856c12ee14503e48fbdf47dffa11bc57d6d13f0d96876",
		}},
	} {
		tc := tc
		name := fmt.Sprintf("vms=%d/chaos=%v", tc.nVMs, tc.chaos)
		if tc.retrain {
			name += "/retrain"
		}
		if tc.detector != "" {
			name = tc.detector + "/" + name
		}
		t.Run(name, func(t *testing.T) {
			spec, err := detector.ParseSpec(tc.detector)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Detector: spec}
			if tc.retrain {
				cfg.RetrainIntervalS = retrainIntervalS
				cfg.HistoryWindowSamples = retrainWindow
			}
			ctl, reg := runSynth(t, tc.nVMs, tc.until, tc.chaos, cfg)
			if len(ctl.Alerts()) == 0 && tc.want.alerts != emptyStream {
				t.Error("no alerts fired; the golden check exercised nothing")
			}
			if got := digestController(ctl, reg); got != tc.want {
				t.Errorf("streams diverged from the recorded oracle:\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}

// TestTickGoldenEngineAcrossShards runs a 4-tenant engine at shard
// counts 1 and 4: both must reproduce the recorded merged alert and
// step logs.
func TestTickGoldenEngineAcrossShards(t *testing.T) {
	skipUnlessAMD64(t)
	want := streamDigests{
		alerts: "5cd8bc6ac171c33aa29153b560a05806cad0bfbed869de3fa2b020da73b3c71c",
		steps:  "090532bba23875b750019f6ad3375e62336fc72d5283215707d34ef531928143",
	}
	for _, shards := range []int{1, 4} {
		tenants := make([]Tenant, 4)
		for i := range tenants {
			w := newSynthWorld(3 + i)
			ctl, err := New(SchemePREPARE, w, w, Config{
				TrainAtS:    300,
				MonitorSeed: int64(100 + i),
			})
			if err != nil {
				t.Fatal(err)
			}
			tenants[i] = Tenant{
				ID:         fmt.Sprintf("tenant-%d", i),
				Controller: ctl,
				Advance: func(now simclock.Time) error {
					w.Tick(now)
					return nil
				},
			}
		}
		eng, err := NewEngine(tenants, EngineOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(600); err != nil {
			t.Fatal(err)
		}
		ha, hs := sha256.New(), sha256.New()
		for _, a := range eng.Alerts() {
			hashAlert(ha, a.Tenant, a.AlertEvent)
		}
		for _, s := range eng.Steps() {
			hashStep(hs, s.Tenant, s.Step)
		}
		if len(eng.Alerts()) == 0 {
			t.Fatal("no alerts fired; the golden check exercised nothing")
		}
		if got := (streamDigests{alerts: hexSum(ha), steps: hexSum(hs)}); got != want {
			t.Errorf("shards=%d: streams diverged from the recorded oracle:\n got  %+v\n want %+v", shards, got, want)
		}
	}
}
