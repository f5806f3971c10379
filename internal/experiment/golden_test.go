package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"xorbp/internal/core"
	"xorbp/internal/predictor"
	"xorbp/internal/snap"
	"xorbp/internal/workload"
)

// predictorGolden pins each direction predictor's exact behaviour under
// every mechanism: the SHA-256 of its prediction bits and of its final
// snapshot (predictor state, then controller state) over a fixed gcc
// stream. Any change to a table layout, key schedule, codec, index hash
// or training rule moves one of these hashes; a deliberate model change
// re-records them (the failure message prints the new entry).
var predictorGolden = map[string][2]string{
	"gshare/Baseline":                 {"fe42d0c71118962294e681b22afce3137a5581bc046ead374d1e8be0601e689d", "0bc8435f671ab390581dcebd54a439f71b128a21f7a07cfb078b4cc1b27dd10a"},
	"gshare/CompleteFlush":            {"248a0fcbb7a077ac76e4fffb61e92c7f0240b6be1e3f1e15a4012628d77c7a46", "6b9867864358e13cbc300f58e0a450c6670f2c9a0daf4f7bfbfa693a65b372fd"},
	"gshare/Noisy-XOR-BP":             {"0808f4ba12a159dcb1362e33a7af50d7f6735b9f8b54afdefe95a37f5e481d18", "9811f5ffc497f5e514c2e759ddd6ab19ca3af0448cef3fabd64cd86522968a89"},
	"gshare/Noisy-XOR-BP+feistel":     {"714d5bb19b8035290f108bf62ab1b9cff07afa1aab4164e93a73b51449eae281", "3b3b905052e1b111802dd183111f47cab84085a8403b68e051bec350ec5b8785"},
	"gshare/Noisy-XOR-BP+rotxor":      {"f160e872974c479cc924a8565a881a742927a2a2b4aada894cacba7df8be1978", "9c2226fb8ee0b753224707690386415c85c6c8cec2fa00510717a1038f0ee9a2"},
	"gshare/PreciseFlush":             {"2579875fda429e6d64dbc6ace8794525a723bb9282c852d4f3d709acb029460a", "04fbddf557e96c181c577b805a50a102063fa7fd8b6c13f5f2b162386b389972"},
	"gshare/XOR-BP":                   {"2e8dbbba6bb8199d8a2eacc6e88bccabe12ad74ede0068f3e93b3fb071c2aafc", "b2ee74fcb13c3addd49ca287100e5cd5e1c95678c9727b82e8b5e8883208f567"},
	"ltage/Baseline":                  {"76610e7ce382c1d8ca70cd013eaa388139bca330da1d506f6b9903b5cc5764cc", "b884ba16ec685e1a30c45afaf9c802b31eb28ccef83b085e613baab93236403b"},
	"ltage/CompleteFlush":             {"e95caffb2830232e605b170b99269c61d33d27edc1a36169681e9072f050a730", "e30f21547d2564a2f99b69701a7f1e31b484470c97cbc8113faaabde6896bdb8"},
	"ltage/Noisy-XOR-BP":              {"2a3832da52ef912b456af6bb41697b8455c28da8c506415a185187638ff260da", "d34be82ce84be8533a4ed1a0075dc8f11cea06c353229fd130722e7689094df5"},
	"ltage/Noisy-XOR-BP+feistel":      {"92530bdfedc211458b7bb516668240eede91c306f8f6fc4cc113c71e6ec14da4", "f888263601fd2558fb2b970740977bdf3692990b07e7f8e115edf8d9e3f0e742"},
	"ltage/Noisy-XOR-BP+rotxor":       {"04e6120e75fc26d279e68a6317bf6519f3764e34bfdf5ee36ecaf7e30ec05493", "bcee149393aea77d7d9ae5c7db8dc9676b0b38fdd5fcd7bb877c53be72032f74"},
	"ltage/PreciseFlush":              {"80378fe88713489fca51bff73e31df77c0f3497edb2b3d66d954ca3bc8638664", "e0c9e3d7ce0ad5b17d2e17c5a0eeab24670ea6bae875370a6de1683c07d65fd1"},
	"ltage/XOR-BP":                    {"29e584c6fe943dcf825f37436c01eff7e4a1c4e45b416616dd27da1533414890", "f3a4330d4f9154688ecb6ce1be57a67617b258b302b200866c71a0ea43c59b2a"},
	"perceptron/Baseline":             {"87482fb2731dddf5f9e35ffabb6942e8bc3041df9f643b8d76f781ee35864043", "ea16497ced654af619231c78d8c7335f004515fd2b14492efb716775fbd3204e"},
	"perceptron/CompleteFlush":        {"361022c57cad124ca9e553fee2db019dc7949094a8fbdd71e85db02773f2f27b", "1144914f2f9dc3f1879147ff58a1517c6aad43fe0de430f1d902eccc31b1700a"},
	"perceptron/Noisy-XOR-BP":         {"0e555b255e4cc54ea9569772a808ed82111f219483664964745391d13b17bf46", "9f5e21a426ab8a2f8cb5dcc6916ed37190dca81e2c21697c98d6ac590cae912f"},
	"perceptron/Noisy-XOR-BP+feistel": {"de0dd5def49b1517f796eea08bf0d455b83b7df20823efe7953ada6141319f0e", "7556f8e50775060a6b3422fff3529de1d41dbc46a82dfae697225d4d5c361bd8"},
	"perceptron/Noisy-XOR-BP+rotxor":  {"4240fdca1a092bbf28cf2ad75b97f566c7917620925ad7864b859a306eb6232e", "f55bf7035450c8ef05f38a9e666d0a06f624bd9949ce941403e9f7644057a6df"},
	"perceptron/PreciseFlush":         {"6e9611e28b6e48a331fd29e1cc5229a84511b68605634ca6a20041627b267378", "7e6966f6f07e5e69a7185a26d15e9fe2b03fd02988e99734641923836269507c"},
	"perceptron/XOR-BP":               {"76c83bcf094279169332f4457cc43f2b5e66c3c653f1fbf8392ea30cce476966", "adb8b3daef31d885cb8083274f940032cc5356208e665b7671919e308cfb0fcd"},
	"tage/Baseline":                   {"3c69905932d8620913bfa035aaab314dcc5c54ffadcccb2f1cabd9bb6664c97a", "675d3b9ab05478b1e2961ea121fb2e01db901d2213988e8eb30fed6f6cb9044b"},
	"tage/CompleteFlush":              {"2e3c22f84d403101f65164a6582106eb19ffae3177eb592d0c3fcda5b074e27e", "a9332aa90251b4b3fbf9d5f6e6843223a31479f6f866ea8923001ff72ffc21be"},
	"tage/Noisy-XOR-BP":               {"b3e393e2a2f4aca2c6bffd427425fb87f11429d2bb7e4e3a6b1d5686f714acc4", "80530d38868498338efb4053284246f67326f10a67f47b4b4c631eab9c0d8e34"},
	"tage/Noisy-XOR-BP+feistel":       {"29a3427ef04fe1ea751ea8fb58a954189a13465bfff33401a8a6fe740463d0f1", "16dddbbc742acfd6f78d1d3ae49a26aa8641617a6ea7e4b4806f052263e76c44"},
	"tage/Noisy-XOR-BP+rotxor":        {"b1c8af2538396951e08429564accfc11270f11c64797d414e03d0ba517378d06", "94fe23b84f78376f303305141536c84c6c906403413fbf643c68da58ce291316"},
	"tage/PreciseFlush":               {"d84d1ea2b9a286f90d3b48efefa41341e13227dc1b607dede3e433ddbbed47d4", "ee60e8760440e7eb827b7b703e7ba0ddfffa345242a8cc7c98efd2fb817531b3"},
	"tage/XOR-BP":                     {"0f720b9778ef86b4c2f130fe07d9ae8354c77f0b00bb67adc879e3da43280d8d", "93634222b476e0052e0c32f0615e382c31ef41b6b5e0372db243ff7c1b4300ce"},
	"tage_sc_l/Baseline":              {"f6e8cd298923fc4e87d9aa22baa45f7d0e73f8873ed19026bedecec7249856ff", "b5a65da11d0b79bdb877f31f3e50c57acaf7dd5d0f5699e99eca62736f6922c6"},
	"tage_sc_l/CompleteFlush":         {"2bea3136fbb8a0e81bd031652144ac95e7482ecab4f6593e6f37866edad4f4ce", "daa574f6e470d6e6a182f7fc869fc058ed47098ae9045161e7fe4b71ceb94000"},
	"tage_sc_l/Noisy-XOR-BP":          {"395854f92476d54ca89f6f651ac96beb5a722b696c9a14f65dcb9aefcb86d7bb", "b9ec6ee9ebc13f3642b6aaf88e15895358ac926aa4c19d9d486b33765f0700cf"},
	"tage_sc_l/Noisy-XOR-BP+feistel":  {"4f77713925508970c79a3ded98879a798cecb76b88e4cf0cdeea13b40df37c24", "2e6fa080fdb1ff82a91e64f579ba6e05b0c62080636a8f30437c0bf0011c45a1"},
	"tage_sc_l/Noisy-XOR-BP+rotxor":   {"3ae0524cee0d15b42d7a0ecc650bb2ce0868bbb68fd033ebfa6c92b1d9c4d900", "f61b4bc9b7c31506ada573ce9f7548fc291ffed58ab06932d5e64e5f9588f502"},
	"tage_sc_l/PreciseFlush":          {"217816a631ce9899b2cca67cc23259eb1b1fa8efc2ffa56103de236ce29fb32d", "e36d403db76752d693d7d390c72299c4eddeddd9a21f109b3ab8a1cf7c5333b7"},
	"tage_sc_l/XOR-BP":                {"f9c3118176eab5791e024dbfac6dadbc70512db02183a38633e4360da2561edf", "caa2f1ed344beac6decfbe56d612602bf54711a4019d4fdf50455b5c861f45a9"},
	"tournament/Baseline":             {"7d4f922600acd55a5bed2f0e5eed7e1bf941f46334bc322ba94bc0faa4dcaeeb", "1d84a9afc7c448e56505c983f2f467f2acb9f7b75ec8a6e7c03aa5a80d043ddf"},
	"tournament/CompleteFlush":        {"25f7cd75bf4bd5d7bd1c296f3b2d4fb866aa0c3f46fcca3d04632b518af9db77", "963d049e9a1178dba005d537182bad4446e85d107d59ea05462aaa27e968f02c"},
	"tournament/Noisy-XOR-BP":         {"08fa1f7d6b94db88aa993582a0b47fb82945b83dc8da4efd25bb9c4fd1cfc57e", "18f8d5bef1a8a718cb49e3aa22478f285934bb2873936a58155dcada91cd4c24"},
	"tournament/Noisy-XOR-BP+feistel": {"d4ab47f7dde8fc6a27d2cec0b383e73c7ccaa9809dbc8847501ddfc749e1c5d0", "e95bcbfed86a6c864089391e5db3a9ea81492990f02bcf885018849d812b5edb"},
	"tournament/Noisy-XOR-BP+rotxor":  {"5be6544fe646df24a5880bf23f43c56b329ee7c81ef8d8ee2adc3e21ad995c8e", "4986578eb7918cd1c6daca4b70644dfb42fac6cfd3e54115396b86de6b01a810"},
	"tournament/PreciseFlush":         {"dd63eb7b1cbf39af51d641447f38a47ea4849d3abe96a1f4f394e4e659b0b7e1", "94ac1138a77244fe8e5cdc727ec8919bfc1ff49384dea7cbd0197f27c7927528"},
	"tournament/XOR-BP":               {"102417fe638a2802e87f55e9865529ec70a567b3eb741faf4ed04ba02aea8dad", "85a387eca7a44e31ce506ada4ffb822c6e46fefebde1970d2323b5a2f4410131"},
}

// goldenConfigs lists the configurations the golden test covers: every
// mechanism at its paper defaults, plus Noisy-XOR-BP with the RotXOR
// content codec and with the Feistel index scrambler.
func goldenConfigs() map[string]core.Options {
	cfgs := map[string]core.Options{}
	for _, m := range []core.Mechanism{core.Baseline, core.CompleteFlush, core.PreciseFlush, core.XOR, core.NoisyXOR} {
		cfgs[m.String()] = core.OptionsFor(m)
	}
	rot := core.OptionsFor(core.NoisyXOR)
	rot.Codec = core.RotXORCodec{}
	cfgs["Noisy-XOR-BP+rotxor"] = rot
	feistel := core.OptionsFor(core.NoisyXOR)
	feistel.Scrambler = core.FeistelScrambler{}
	cfgs["Noisy-XOR-BP+feistel"] = feistel
	return cfgs
}

// goldenRun drives one predictor with the gcc stream split across two
// hardware threads (alternating 64-branch bursts), with a context switch
// every 1500 branches of a thread and a privilege change every 250, and
// returns the hashes of the prediction bits and of the final snapshot.
func goldenRun(name string, o core.Options) (preds, state string) {
	const branches = 24_000
	ctrl := core.NewController(o, 5)
	p := NewDirPredictor(name, ctrl)
	gen := workload.NewGenerator(workload.MustByName("gcc"), 9)
	var priv [2]core.Privilege
	var perThread [2]int
	bitsOut := make([]byte, branches/8)
	var ev workload.BranchEvent
	for n := 0; n < branches; {
		gen.Next(&ev)
		if ev.Class != predictor.CondDirect {
			continue
		}
		th := core.HWThread((n / 64) % 2)
		perThread[th]++
		switch {
		case perThread[th]%1500 == 0:
			ctrl.ContextSwitch(th)
		case perThread[th]%250 == 0:
			priv[th] = (priv[th] + 1) % 3
			ctrl.PrivilegeChange(th, priv[th])
		}
		d := core.Domain{Thread: th, Priv: priv[th]}
		if p.Predict(d, ev.PC) {
			bitsOut[n/8] |= 1 << (n % 8)
		}
		p.Update(d, ev.PC, ev.Taken)
		n++
	}
	var w snap.Writer
	p.(snap.Snapshotter).Snapshot(&w)
	ctrl.Snapshot(&w)
	ph := sha256.Sum256(bitsOut)
	sh := sha256.Sum256(w.Bytes())
	return hex.EncodeToString(ph[:]), hex.EncodeToString(sh[:])
}

// TestPredictorGolden checks every predictor × configuration against the
// pinned hashes.
func TestPredictorGolden(t *testing.T) {
	for _, name := range append(PredictorNames(), "tage") {
		for cfgName, o := range goldenConfigs() {
			key := name + "/" + cfgName
			preds, state := goldenRun(name, o)
			want, ok := predictorGolden[key]
			if !ok || want != [2]string{preds, state} {
				t.Errorf("%s: got hashes\n\t%q: {%q, %q},", key, key, preds, state)
			}
		}
	}
}
