// AVX-512 kernel tier (8 double lanes; one W row group per register).
// Compiled with -mavx512f -mavx512dq -ffp-contract=off (see
// src/CMakeLists.txt); elsewhere this TU degenerates to a null table.
#include "core/simd/kernels.h"

#if defined(__x86_64__) && defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include <type_traits>

#include "core/simd/kernels_vec_impl.h"

namespace sfqpart::simd {
namespace {

// gather_endpoints reads an edge block as 16 packed 32-bit ints, first
// then second of each edge.
static_assert(std::is_standard_layout_v<std::pair<int, int>> &&
                  sizeof(std::pair<int, int>) == 2 * sizeof(std::int32_t) &&
                  sizeof(int) == sizeof(std::int32_t),
              "std::pair<int, int> must be two packed 32-bit ints");

struct Avx512Ops {
  using V = __m512d;
  static constexpr std::size_t kLanes = 8;
  static constexpr bool kGatherScatter = true;

  static V zero() { return _mm512_setzero_pd(); }
  static V set1(double x) { return _mm512_set1_pd(x); }
  static V load(const double* p) { return _mm512_load_pd(p); }
  static V loadu(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, V v) { _mm512_store_pd(p, v); }
  static void storeu(double* p, V v) { _mm512_storeu_pd(p, v); }
  static V add(V a, V b) { return _mm512_add_pd(a, b); }
  static V sub(V a, V b) { return _mm512_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm512_mul_pd(a, b); }
  static V div(V a, V b) { return _mm512_div_pd(a, b); }
  static V neg(V a) { return _mm512_xor_pd(a, _mm512_set1_pd(-0.0)); }
  static V abs(V a) { return _mm512_andnot_pd(_mm512_set1_pd(-0.0), a); }

  // See Avx2Ops: x stays in the NaN/-0-deciding second operand slot.
  static V clamp01(V x) {
    return _mm512_min_pd(set1(1.0), _mm512_max_pd(_mm512_setzero_pd(), x));
  }
  static V max_second(V x, V acc) { return _mm512_max_pd(x, acc); }

  static V select_ge0(V delta, V a, V b) {
    const __mmask8 ge =
        _mm512_cmp_pd_mask(delta, _mm512_setzero_pd(), _CMP_GE_OQ);
    return _mm512_mask_blend_pd(ge, b, a);  // mask set -> a
  }

  // The endpoint labels of the 8 edges at `edges`: one load of the 16
  // packed ints, one permute splitting them into firsts (low half) and
  // seconds (high half), and one gather per half. Gate indices are
  // non-negative ints, so the signed 32-bit gather index holds them.
  static void gather_endpoints(const std::pair<int, int>* edges,
                               const double* labels, V& first, V& second) {
    const __m512i pairs = _mm512_loadu_si512(edges);
    const __m512i split = _mm512_permutexvar_epi32(
        _mm512_set_epi32(15, 13, 11, 9, 7, 5, 3, 1, 14, 12, 10, 8, 6, 4, 2, 0),
        pairs);
    first = _mm512_i32gather_pd(_mm512_castsi512_si256(split), labels, 8);
    second = _mm512_i32gather_pd(_mm512_extracti64x4_epi64(split, 1), labels, 8);
  }
  // Lane j: slot_grad[offsets[j]] + ... + slot_grad[offsets[j+1] - 1],
  // added in ascending slot order onto +0.0 — gate j's scalar chain. Each
  // step gathers the next slot of every gate that has one; a finished
  // lane is masked out of both the gather and the add.
  static V sum_slots(const double* slot_grad, const std::uint32_t* offsets) {
    __m256i slot =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(offsets));
    const __m256i end =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(offsets + 1));
    // Signed compares: slots are below 2^31 (see scatter).
    const auto live = [&end](__m256i at) {
      return static_cast<__mmask8>(
          _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(end, at))));
    };
    V sum = _mm512_setzero_pd();
    for (__mmask8 m = live(slot); m != 0; m = live(slot)) {
      const V value = _mm512_mask_i32gather_pd(sum, m, slot, slot_grad, 8);
      sum = _mm512_mask_add_pd(sum, m, sum, value);
      slot = _mm256_add_epi32(slot, _mm256_set1_epi32(1));
    }
    return sum;
  }
  static V load_weights(const std::int32_t* weights) {
    return _mm512_cvtepi32_pd(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(weights)));
  }
  // base[slots[j]] = v[j]; the slots are below 2^31 (ProblemView asserts
  // 2|E| < 2^31), so the signed 32-bit scatter index holds them.
  static void scatter(double* base, const std::uint32_t* slots, V v) {
    _mm512_i32scatter_pd(
        base, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(slots)), v,
        8);
  }

  // In-place 8x8 transpose via unpack + 128-bit lane shuffles.
  static void transpose(V (&r)[kLanes]) {
    const V t0 = _mm512_unpacklo_pd(r[0], r[1]);
    const V t1 = _mm512_unpackhi_pd(r[0], r[1]);
    const V t2 = _mm512_unpacklo_pd(r[2], r[3]);
    const V t3 = _mm512_unpackhi_pd(r[2], r[3]);
    const V t4 = _mm512_unpacklo_pd(r[4], r[5]);
    const V t5 = _mm512_unpackhi_pd(r[4], r[5]);
    const V t6 = _mm512_unpacklo_pd(r[6], r[7]);
    const V t7 = _mm512_unpackhi_pd(r[6], r[7]);

    const V u0 = _mm512_shuffle_f64x2(t0, t2, 0x88);
    const V u1 = _mm512_shuffle_f64x2(t1, t3, 0x88);
    const V u2 = _mm512_shuffle_f64x2(t0, t2, 0xDD);
    const V u3 = _mm512_shuffle_f64x2(t1, t3, 0xDD);
    const V u4 = _mm512_shuffle_f64x2(t4, t6, 0x88);
    const V u5 = _mm512_shuffle_f64x2(t5, t7, 0x88);
    const V u6 = _mm512_shuffle_f64x2(t4, t6, 0xDD);
    const V u7 = _mm512_shuffle_f64x2(t5, t7, 0xDD);

    r[0] = _mm512_shuffle_f64x2(u0, u4, 0x88);
    r[1] = _mm512_shuffle_f64x2(u1, u5, 0x88);
    r[2] = _mm512_shuffle_f64x2(u2, u6, 0x88);
    r[3] = _mm512_shuffle_f64x2(u3, u7, 0x88);
    r[4] = _mm512_shuffle_f64x2(u0, u4, 0xDD);
    r[5] = _mm512_shuffle_f64x2(u1, u5, 0xDD);
    r[6] = _mm512_shuffle_f64x2(u2, u6, 0xDD);
    r[7] = _mm512_shuffle_f64x2(u3, u7, 0xDD);
  }
};

}  // namespace

const KernelTable* avx512_kernels() {
  static const KernelTable table = VecKernels<Avx512Ops>::table("avx512");
  return &table;
}

}  // namespace sfqpart::simd

#else  // unsupported target/compiler

namespace sfqpart::simd {
const KernelTable* avx512_kernels() { return nullptr; }
}  // namespace sfqpart::simd

#endif
