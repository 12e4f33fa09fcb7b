//go:build !amd64

package ids

// useSHANI is false off amd64: every pair hash takes sha256.Sum256.
const useSHANI = false

func pairBlockSHANI(*[64]byte) uint64 { panic("ids: no SHA-NI kernel on this architecture") }
