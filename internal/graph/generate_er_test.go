package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
)

// erGolden pins ByFamily("er", n, seed) twice: Hash, the digest of the
// edge multiset, and orderDigest, which also depends on the order the
// edges were added in and on their orientation. A change to the
// generator's rng draws moves the first; a change to its edge order moves
// the second, and with it every tree and solve built on the graph.
var erGolden = map[string][2]string{
	"64/1":   {"0f65357be20eb604e70cd5d0f6d400eaa9e261008a0d030063931b2acbf9c366", "ab64241b2576bc686ad2f5e940b2ae36041142028111f0911910d1824352d74b"},
	"64/2":   {"6f7b8137bf0a9209f0e6b35879bd364f8675790b0150255efd873e77302cda53", "3ff6bdbbdb6f79c0b7d4683dcff431441ca2fef595d36aa39134786811de4662"},
	"64/7":   {"b2ad1df1513a1fe43ba92ff111197335e8de4c27a67fb7fa7b23a5fa9f0a0107", "2a5d0566d2a17842f4f0428ed6d9a3bef675247c556d1ad427d970e9ec4224e4"},
	"256/1":  {"cbd246de0dfccc8be4aea3aaca29e968f310ae8cd0b7f549a7c9068f25246d4b", "d12c8e8c27d3c8421b4ac93433505a68d06a7984e9cb235ba32545d715efcc92"},
	"256/2":  {"7d1e817e2e10a83ec4fb76b1e3e69d26c405f83f4cac9903852a655e48f63c2e", "a1a44a56a783000495ee3fbde12bb805ac5bd1a3d0e5f25f3b4fd29e59fd3276"},
	"256/7":  {"25014f46bc08f30e577435a67b9b8f00bfe95f0c26955cb4e45a82161dcf8888", "b3f5864924f23b3de81d2669a71fe2235b0a32e781b61f768d56e02cf5d0e1ac"},
	"1024/1": {"4f5df1ff9c226ef48a6ae0d1e3189b5c22cb775f44a911f9b205fe70d3b2eabf", "a533fb5dd2aaaa3b0e49f0685820db8519971493c03400968fef7db6143f38a5"},
	"1024/2": {"b776a9b9e9ee0a8963575674d0b35053013d64f7de3ba04bf6306da5af562a69", "f9a434ee147e7bd686b502adc02e959cc2a1d9d535dcaa3039791a1bba5c0b3b"},
	"1024/7": {"707815ffa1f878c9aff69da0e546eb32131d72e1cc39c1252bf25f0b07ef7bdc", "b6fdd65110a9ad8ff70793c2b6fb34935bd33bbf7fc2e862525c0b9a8e798993"},
}

// orderDigest is the SHA-256 of g's edges as (u, v, w) in insertion order.
func orderDigest(g *Graph) string {
	h := sha256.New()
	var b [24]byte
	for _, e := range g.Edges {
		binary.LittleEndian.PutUint64(b[0:], uint64(e.U))
		binary.LittleEndian.PutUint64(b[8:], uint64(e.V))
		binary.LittleEndian.PutUint64(b[16:], uint64(e.W))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestErdosRenyiGolden(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		for _, seed := range []int64{1, 2, 7} {
			key := fmt.Sprintf("%d/%d", n, seed)
			g, err := ByFamily("er", n, seed)
			if err != nil {
				t.Fatal(err)
			}
			h := g.Hash()
			got := [2]string{hex.EncodeToString(h[:]), orderDigest(g)}
			if got != erGolden[key] {
				t.Errorf("er %s: (Hash, order digest) = %q, want %q", key, got, erGolden[key])
			}
		}
	}
}
