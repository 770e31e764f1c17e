package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// tableHashes pins the rendered text (Table.String: rows, columns and
// notes) of every registered experiment at its default packet counts.
// Every table is a deterministic virtual-time result, so a change that
// moves one cell anywhere in pfbench's default output fails here, and
// "pfbench output is byte-identical" needs no hand-run cmp.  When an
// intentional change moves a table, the failure prints the new hash;
// re-pin it only after confirming the shift is intended.
var tableHashes = map[string]string{
	"fig2-1/2-2":     "524eb11c9b1d83f402775035ec6678964dbf7beb90fb2b296c8403916f92999e",
	"fig2-3":         "acdc7abd8419899547662ca3b391648f96a7c4ae69fd6b3bb40694028f009cc2",
	"fig3-4/3-5":     "1ef1485cf2922817fb51e2270ee1bb0bed212246e495d0df08d3ddaa3f5a266a",
	"t6-1":           "aca493efc1396e7e69c04dafad438f6e451006f601fb2fe28a561b053570c603",
	"t6-2":           "d501cee675c1448863e66a8fb3c12153b6319ee1c084fbe5a4b2d65d6fb4dd80",
	"t6-3":           "96503e45a2854452c50b49c64d734c86ed9be7119201cc20915853d87e3cafe0",
	"t6-4":           "7b83ea3afdf963b017197ea114f5b7b0a15aa018fd09eeda84d5f9a03557d655",
	"t6-5":           "9ebf56ea25b43f06cc8839870513365793d14a890c54e97d3f8f462d4a6745f0",
	"t6-6":           "f95b79e8b70a3bf28f3dd1ee8e4a4d041e84f2ab4043f4108b500e8345c1b2c8",
	"t6-7":           "e4d69e04474ee1524114594aef301fe6a1eeaa70cecbab01eccf4335f05ae17b",
	"t6-8":           "381009b6c26c396cd5e416bf99d3cfecbede558cc7761ffe0a016cc2865c9a33",
	"t6-9":           "d421f19b0ce926b16ae634379e63b7f38074df7c4600a3f618fc13484e2c9230",
	"t6-10":          "624c160b790b25fd08deb6b7dd2fdaed3aa235bc84e690034e686b4bb5f42798",
	"s6-1":           "d12821a8a0b84eeaa4735efefc9252ff71481cb541d2ba930f1851414edb2135",
	"s6-1-fit":       "00e202b523e5c492d5150a95df4e6aabaae73d4295fd0621efd7db773f92a434",
	"s6-5-break":     "078dfc671e8a7f787400c2c52861234da2feece81682fcefe7237d5476dc2ed1",
	"abl-eval":       "56a241ba16a72289dd013de1091a175283dc02798943234747e4c6012abbf190",
	"abl-sc":         "5ea69e258c327d5a7c60ab570e773c089b2c73d0f7e6b27069351ffe144399c4",
	"abl-prio":       "ab360f0b297d83ada3b9eff9d1656937d610efb17f031c8f5dcb69aeadc90ec4",
	"abl-nit":        "3a0fbfc23eb70f1733d4f1cbf88a17d4b62ff31361b6216be2093c30c2f09546",
	"abl-wbatch":     "ab756e51aa3bcd53500b05c3282237f50661fb352b66b5fe38c906679201d1a0",
	"abl-gw":         "eaaa34f62dfc41ff33b3514f3f4247e0524d270376978652b469eef1bb55155f",
	"chaos":          "575113fd7008145d6bf2035fea7ff7631fbf0ce4513b934b29079cd8d141662c",
	"exp-shm":        "dd303eb64afdea161a6badbf849d84b15fec51a20404fba80a68769f5c3fafe2",
	"exp-coalesce":   "ab5840cfda1fb5cc3e42141ef7e0e72c56202a7d93a986c1d1fef999777e7354",
	"exp-scale":      "5cfe90cab6366b24f6769306a617c412ab56830e848f54dba8eed57ccee53fc7",
	"exp-provenance": "ba48e6a7edb8e54b470264397475b6dc32b77d4d53edfe18b16a28edcf5a2680",
	"exp-storm":      "aa78f58a05650cc2b73a6ed45ecca6816189f515eaeaf6a8099e9ae2bf16fff6",
	"exp-churn":      "f39e127fa0d625054823de2dd2686a5b3cc00639fb78d1082f984d414fdeddff",
	"exp-mq":         "0d48ec295caa6860ffb58cfc5745e5043f9c247121931e1090a7cb303ac17f2d",
}

// TestTablesPinned renders every experiment sequentially and, for the
// sweeps whose cells run across the parsim pool, again at four workers:
// both must match the pinned hash.
func TestTablesPinned(t *testing.T) {
	oldWorkers := Workers
	defer func() { Workers = oldWorkers }()
	for _, workers := range []int{1, 4} {
		Workers = workers
		for _, e := range Experiments() {
			sum := sha256.Sum256([]byte(e.Run().String()))
			got := hex.EncodeToString(sum[:])
			want, ok := tableHashes[e.ID]
			switch {
			case !ok:
				t.Errorf("workers=%d: %s: no pinned hash; got %q", workers, e.ID, got)
			case got != want:
				t.Errorf("workers=%d: %s: table hash %s, want %s", workers, e.ID, got, want)
			}
		}
	}
}
