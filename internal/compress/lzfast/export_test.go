package lzfast

// Test-only exports: the differential tests pin the production fast-path
// encoder and decoder to the retained reference implementations, and the
// kernel primitives to the bounds-checked reference primitives.
var (
	DecompressFast = decompressBlock
	DecompressRef  = decompressBlockRef

	CompressFast    = compressFast
	CompressFastRef = compressFastRef

	MatchLenKernel = kmatchLen
	MatchLenRef    = matchLen
)

// KernelName reports which kernel tier this build compiled in ("unsafe" or
// "portable") so test logs show what was exercised.
const KernelName = kernelName

// CompressHCAt runs the hash-chain encoder at an explicit operating point;
// BenchmarkHCSweep walks the grid HC{}'s default was picked from.
func CompressHCAt(dst, src []byte, depth, refund, keyBytes int) []byte {
	return compressHC(dst, src, hcPoint(depth, refund, keyBytes, len(src)))
}

// CompressHCCounted compresses src at HC{}'s operating point on tables of
// its own, not the pool's, and reports how many candidates its searches
// examined: the parse-path suite bounds the work on degenerate input by that
// count, not by the clock.
func CompressHCCounted(src []byte) (comp []byte, visits int) {
	st := new(hcState)
	comp = st.compress(nil, src, HC{}.point(len(src)))
	return comp, st.visits
}
