package ids

// useSHANI selects the one-block SHA-NI kernel, once, from CPUID: it
// needs the SHA extensions, SSSE3 and SSE4.1. The kernel uses SSE
// encodings only, so neither AVX nor the OS's AVX state matters.
var useSHANI = hasSHANI()

func hasSHANI() bool {
	const (
		ssse3 = 1 << 9  // CPUID.1:ECX
		sse41 = 1 << 19 // CPUID.1:ECX
		sha   = 1 << 29 // CPUID.(7,0):EBX
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	return ecx1&ssse3 != 0 && ecx1&sse41 != 0 && ebx7&sha != 0
}

// pairBlockSHANI compresses one padded SHA-256 block from the standard
// initial value and returns the digest's first 8 bytes, big-endian.
//
//go:noescape
func pairBlockSHANI(block *[64]byte) uint64

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
