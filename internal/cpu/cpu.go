// Package cpu detects the vector capabilities of the processor the
// binary is running on, so hot-loop kernels can pick the widest safe
// implementation at init time instead of trusting build-time flags.
//
// The package deliberately exposes only what the repository's kernels
// dispatch on. Detection runs once, from this package's init: the
// amd64 build probes CPUID/XGETBV (a GOAMD64=v1 binary still uses AVX2
// kernels on a machine that has it, and a GOAMD64=v3 binary degrades
// to scalar kernels instead of faulting if the feature bits are
// missing); arm64 assumes ASIMD/NEON, which the architecture
// guarantees; everything else — including any build with the `purego`
// tag — reports no vector features at all, which is the repository's
// escape hatch back to the pure-Go reference kernels.
package cpu

// X86 reports the amd64 vector features of the running processor. All
// fields are false on other architectures and under the purego tag.
var X86 struct {
	// HasAVX2 reports AVX2 with OS-saved YMM state: the 4-lane float64
	// kernels are safe to run.
	HasAVX2 bool
	// HasAVX512 reports AVX-512 F+DQ with OS-saved ZMM state. No kernel
	// dispatches on it; bench snapshots record it as the host's tier.
	HasAVX512 bool
}

// ARM64 reports the arm64 vector features of the running processor.
var ARM64 struct {
	// HasNEON reports ASIMD support (architecturally guaranteed on
	// arm64; false elsewhere and under purego).
	HasNEON bool
}

// Level names the widest vector tier detection found, for bench
// snapshots and logs: "avx512", "avx2", "neon", or "scalar". Binaries
// built with the purego tag always report "scalar".
func Level() string {
	switch {
	case X86.HasAVX512:
		return "avx512"
	case X86.HasAVX2:
		return "avx2"
	case ARM64.HasNEON:
		return "neon"
	default:
		return "scalar"
	}
}
