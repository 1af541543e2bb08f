// AVX2 kernel tier (4 double lanes). Compiled with -mavx2
// -ffp-contract=off (see src/CMakeLists.txt); on non-x86 or unsupported
// compilers this TU degenerates to a null table and dispatch never
// offers the tier.
#include "core/simd/kernels.h"

#if defined(__x86_64__) && defined(__AVX2__)

#include <immintrin.h>

#include "core/simd/kernels_vec_impl.h"

namespace sfqpart::simd {
namespace {

struct Avx2Ops {
  using V = __m256d;
  static constexpr std::size_t kLanes = 4;
  // AVX2 has gathers but no scatter, and a gather-loaded edge block
  // measured slower on dense coarse graphs (DESIGN.md section 15.1), so
  // edge and slot blocks are assembled in stack buffers.
  static constexpr bool kGatherScatter = false;

  static V zero() { return _mm256_setzero_pd(); }
  static V set1(double x) { return _mm256_set1_pd(x); }
  static V load(const double* p) { return _mm256_load_pd(p); }
  static V loadu(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, V v) { _mm256_store_pd(p, v); }
  static void storeu(double* p, V v) { _mm256_storeu_pd(p, v); }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V div(V a, V b) { return _mm256_div_pd(a, b); }
  static V neg(V a) { return _mm256_xor_pd(a, _mm256_set1_pd(-0.0)); }
  static V abs(V a) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a); }

  // clamp01 with std::clamp(x, 0, 1) value semantics: vmin/vmaxpd return
  // the SECOND operand on NaN or signed-zero ties, so keeping x there
  // propagates NaN and -0 exactly like the scalar expression.
  static V clamp01(V x) {
    return _mm256_min_pd(set1(1.0), _mm256_max_pd(_mm256_setzero_pd(), x));
  }
  // max with the accumulator in the NaN-keeping (second) slot.
  static V max_second(V x, V acc) { return _mm256_max_pd(x, acc); }

  // lanewise: ge0 ? a : b, with NaN deltas taking b — matching the scalar
  // `delta >= 0.0 ? a : b` (unordered compares are false).
  static V select_ge0(V delta, V a, V b) {
    const V mask = _mm256_cmp_pd(delta, _mm256_setzero_pd(), _CMP_GE_OQ);
    return _mm256_blendv_pd(b, a, mask);
  }

  // In-place 4x4 transpose: r[j] holds gate j's 4 plane values on entry,
  // plane kk's 4 gate values on exit.
  static void transpose(V (&r)[kLanes]) {
    const V t0 = _mm256_unpacklo_pd(r[0], r[1]);
    const V t1 = _mm256_unpackhi_pd(r[0], r[1]);
    const V t2 = _mm256_unpacklo_pd(r[2], r[3]);
    const V t3 = _mm256_unpackhi_pd(r[2], r[3]);
    r[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
    r[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
    r[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
    r[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
  }
};

}  // namespace

const KernelTable* avx2_kernels() {
  static const KernelTable table = VecKernels<Avx2Ops>::table("avx2");
  return &table;
}

}  // namespace sfqpart::simd

#else  // unsupported target/compiler

namespace sfqpart::simd {
const KernelTable* avx2_kernels() { return nullptr; }
}  // namespace sfqpart::simd

#endif
