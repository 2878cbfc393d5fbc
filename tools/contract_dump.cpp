// contract_dump: prints what the vbatched fronts other than the potrf
// drivers report and write — call seconds and flops, every field of every
// timeline record (doubles with %a), info, and an FNV-1a hash of the bytes
// of every factor (lda padding included), pivot array, tau array and
// right-hand side — first in Full mode, then in TimingOnly mode (which has
// no payload to hash). Two builds, or two worker counts, agree exactly when
// their outputs are byte-identical:
//
//   VBATCH_NUM_THREADS=1 contract_dump > one.txt
//   VBATCH_NUM_THREADS=4 contract_dump > four.txt && cmp one.txt four.txt
//
// The fronts: getrf/getrs, geqrf/ormqr/geqrs, potrs/posv/potri, the classic
// Cholesky (Lower and Upper), and gemm/syrk/trsm/trmm vbatched. Batches are
// ragged around the panel widths, hold empty matrices, and carry singular
// (LU) and non-SPD (Cholesky) matrices. Wide QR matrices (m < n) print in a
// section of their own.
//
// A first section hashes the host BLAS the fronts compute with: blas::gemm
// (every trans pair, alpha 1, -1 and 0.3), syrk (both uplos and trans),
// trsm/trmm (every side/uplo/trans/diag) and potrf (Lower/Upper), s/d/c/z,
// on ragged sizes up to 520, each operand's padding rows included. Its bits
// depend on the active ISA, so compare two builds under one VBATCH_ISA.
#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "vbatch/blas/blas.hpp"
#include "vbatch/core/blas_vbatched.hpp"
#include "vbatch/core/geqrf_vbatched.hpp"
#include "vbatch/core/getrf_vbatched.hpp"
#include "vbatch/core/potrf_classic.hpp"
#include "vbatch/core/potrs_vbatched.hpp"
#include "vbatch/util/flags.hpp"
#include "vbatch/util/rng.hpp"

namespace {

using namespace vbatch;

void put(double x) { std::printf(" %a", x); }

/// The FNV-1a hash of an array's bytes: equal outputs mean equal bits.
template <typename T>
unsigned long long fnv1a(const T* p, std::size_t count) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto* c = reinterpret_cast<const unsigned char*>(p);
  for (std::size_t k = 0; k < count * sizeof(T); ++k) h = (h ^ c[k]) * 0x100000001b3ull;
  return static_cast<unsigned long long>(h);
}

/// Prints one call's result and the records it appended to the timeline.
class Dumper {
 public:
  explicit Dumper(Queue& q) : q_(q) {}

  template <typename Result>
  void call(const std::string& what, const Result& r) {
    std::printf("%s seconds", what.c_str());
    put(r.seconds);
    std::printf(" flops");
    put(r.flops);
    std::printf(" clock");
    put(q_.time());
    std::printf("\n");
    const auto& recs = q_.device().timeline().records();
    for (; seen_ < recs.size(); ++seen_) {
      const sim::KernelRecord& k = recs[seen_];
      std::printf("  %s", k.name.c_str());
      put(k.start);
      put(k.end);
      std::printf(" %d %d %zu %d", k.grid_blocks, k.block_threads, k.shared_mem,
                  k.resident_per_sm);
      put(k.flops);
      put(k.bytes);
      std::printf(" %d %d %d\n", k.early_exits, k.stream, k.fault ? 1 : 0);
    }
  }

  /// Info, then (Full mode) every matrix's whole lda × n storage.
  template <typename T>
  void batch(const char* what, RectBatch<T>& b) {
    std::printf(" %s info", what);
    for (int v : b.info()) std::printf(" %d", v);
    std::printf("\n");
    if (!q_.full()) return;
    for (int i = 0; i < b.count(); ++i) {
      const auto k = static_cast<std::size_t>(i);
      bytes(what, i, b.device_ptrs()[i], static_cast<std::size_t>(b.ldas()[k] * b.cols()[k]));
    }
  }

  /// Every item of a pivot or tau slab (Full mode).
  template <typename T>
  void slab(const char* what, const SlabArrays<T>& s) {
    if (!q_.full()) return;
    for (int i = 0; i < s.count(); ++i) bytes(what, i, s.item(i).data(), s.item(i).size());
  }

 private:
  template <typename T>
  static void bytes(const char* what, int i, const T* p, std::size_t count) {
    std::printf("  %s[%d] %016llx\n", what, i, fnv1a(p, count));
  }

  Queue& q_;
  std::size_t seen_ = 0;
};

/// Sets entry (r, c) and its mirror of matrix i (Full mode only).
template <typename T>
void poison(Queue& q, RectBatch<T>& b, int i, int r, int c, T v) {
  if (!q.full() || i >= b.count()) return;
  MatrixView<T> m = b.matrix(i);
  if (r >= m.rows() || c >= m.cols()) return;
  m(r, c) = v;
  if (c < m.rows() && r < m.cols()) m(c, r) = v;
}

const std::vector<int> kSizes{0, 1, 7, 8, 9, 23, 24, 25, 31, 32, 33, 63, 64, 65, 0, 97, 130, 200};

std::vector<int> ragged(std::vector<int> base, int shift, int mod) {
  for (std::size_t k = 0; k < base.size(); ++k) base[k] = (base[k] * 7 + shift) % mod;
  return base;
}

/// Cholesky poisons: a negative pivot inside the first classic tile, at a
/// tile boundary and in the last tile, NaN below the diagonal, +Inf on it.
template <typename T>
void poison_spd(Queue& q, Batch<T>& b) {
  using R = decltype(std::abs(T{}));
  poison<T>(q, b, 6, 3, 3, T(-1e6));
  poison<T>(q, b, 10, 24, 24, T(-1e6));
  poison<T>(q, b, 12, 40, 40, T(-1e6));
  poison<T>(q, b, 16, 120, 120, T(-1e6));
  poison<T>(q, b, 15, 50, 20, T(std::numeric_limits<R>::quiet_NaN()));
  poison<T>(q, b, 17, 60, 60, T(std::numeric_limits<R>::infinity()));
}

template <typename T>
void dump_cholesky(Queue& q, Dumper& d, Rng& fill) {
  const std::vector<int> nrhs = ragged(kSizes, 3, 11);
  Batch<T> spd(q, kSizes, 2);
  spd.fill_spd(fill);
  poison_spd(q, spd);
  RectBatch<T> rhs(q, kSizes, nrhs);
  rhs.fill_general(fill);
  d.call("posv", posv_vbatched<T>(q, Uplo::Lower, spd, rhs, {}));
  d.call("potrs", potrs_vbatched<T>(q, Uplo::Lower, spd, rhs));
  d.call("potri", potri_vbatched<T>(q, Uplo::Lower, spd));
  d.batch("spd", spd);
  d.batch("rhs", rhs);
}

template <typename T>
void dump_blas(Queue& q, Dumper& d, Rng& fill) {
  const std::vector<int> m = ragged(kSizes, 5, 150), k = ragged(kSizes, 1, 70);
  RectBatch<T> a(q, m, k), b(q, k, kSizes), c(q, m, kSizes);
  a.fill_general(fill);
  b.fill_general(fill);
  c.fill_general(fill);
  d.call("gemm", gemm_vbatched<T>(q, Trans::NoTrans, Trans::NoTrans, T(1.5f), a, b, T(0.5f), c));
  d.batch("gemm_c", c);

  for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    const Trans trans = uplo == Uplo::Lower ? Trans::NoTrans : Trans::Trans;
    RectBatch<T> sa(q, trans == Trans::NoTrans ? kSizes : k, trans == Trans::NoTrans ? k : kSizes);
    Batch<T> sc(q, kSizes, 1);
    sa.fill_general(fill);
    sc.fill_general(fill);
    d.call("syrk", syrk_vbatched<T>(q, uplo, trans, T(-1), sa, T(0.5f), sc));
    d.batch("syrk_c", sc);
  }

  for (Side side : {Side::Left, Side::Right}) {
    const std::vector<int>& ka = side == Side::Left ? m : kSizes;
    Batch<T> tri(q, ka, 3);
    tri.fill_spd(fill);
    for (bool solve : {true, false}) {
      RectBatch<T> rb(q, m, kSizes);
      rb.fill_general(fill);
      const std::string what = std::string(solve ? "trsm" : "trmm") +
                               (side == Side::Left ? "_left" : "_right");
      d.call(what, solve ? trsm_vbatched<T>(q, side, Uplo::Lower, Trans::Trans, Diag::NonUnit,
                                            T(-1.25f), tri, rb)
                         : trmm_vbatched<T>(q, side, Uplo::Upper, Trans::NoTrans, Diag::Unit,
                                            T(-1.25f), tri, rb));
      d.batch(what.c_str(), rb);
    }
  }
}

template <typename T>
void dump_classic(Queue& q, Dumper& d, Rng& fill) {
  for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    Batch<T> classic(q, kSizes, 1);
    classic.fill_spd(fill);
    poison_spd(q, classic);
    d.call(uplo == Uplo::Lower ? "classic_lower" : "classic_upper",
           potrf_batched_classic<T>(q, uplo, classic));
    d.batch("classic", classic);
  }
}

template <typename T>
void dump_lu(Queue& q, Dumper& d, Rng& fill) {
  const std::vector<int> nrhs = ragged(kSizes, 2, 13);
  Batch<T> lu(q, kSizes, 3);
  lu.fill_general(fill);
  // Exactly singular: a zero column at a panel start, inside a panel and
  // at the last column.
  for (auto [i, col] : {std::pair{9, 0}, std::pair{13, 32}, std::pair{16, 40},
                        std::pair{17, 199}}) {
    if (!q.full()) break;
    MatrixView<T> a = lu.matrix(i);
    for (index_t r = 0; r < a.rows(); ++r) a(r, col) = T(0);
  }
  PivotArrays ipiv(q, kSizes);
  RectBatch<T> rhs(q, kSizes, nrhs);
  rhs.fill_general(fill);
  d.call("getrf", getrf_vbatched<T>(q, lu, ipiv));
  d.call("getrs", getrs_vbatched<T>(q, lu, ipiv, rhs));
  d.batch("lu", lu);
  d.batch("lu_rhs", rhs);
  d.slab("ipiv", ipiv);
}

template <typename T>
void dump_qr(Queue& q, Dumper& d, Rng& fill, const std::vector<int>& rows,
             const std::vector<int>& cols, bool solve) {
  std::vector<int> mn(rows.size());
  for (std::size_t k = 0; k < rows.size(); ++k) mn[k] = std::min(rows[k], cols[k]);
  RectBatch<T> qr(q, rows, cols);
  qr.fill_general(fill);
  TauArrays<T> tau(q, mn);
  d.call("geqrf", geqrf_vbatched<T>(q, qr, tau));
  d.batch("qr", qr);
  d.slab("tau", tau);
  if (!solve) return;
  const std::vector<int> nrhs = ragged(cols, 4, 10);
  RectBatch<T> qt_rhs(q, rows, nrhs), ls_rhs(q, rows, nrhs);
  qt_rhs.fill_general(fill);
  ls_rhs.fill_general(fill);
  d.call("ormqr", ormqr_vbatched<T>(q, qr, tau, qt_rhs));
  d.call("geqrs", geqrs_vbatched<T>(q, qr, tau, ls_rhs));
  d.batch("qt_rhs", qt_rhs);
  d.batch("ls_rhs", ls_rhs);
}

/// A host operand: rows × cols, column-major, three padding rows holding a
/// sentinel.
template <typename T>
struct HostMatrix {
  HostMatrix(Rng& fill, index_t r, index_t c, bool spd = false)
      : rows(r), cols(c), buf(static_cast<std::size_t>((r + 3) * std::max<index_t>(c, 1)), T(-7)) {
    if (r == 0 || c == 0) return;
    if (spd)
      fill_spd(fill, buf.data(), r, r + 3);
    else
      fill_general(fill, buf.data(), r, c, r + 3);
  }
  MatrixView<T> view() { return MatrixView<T>(buf.data(), rows, cols, rows + 3); }
  void print(const std::string& what) const {
    std::printf("%s %016llx\n", what.c_str(), fnv1a(buf.data(), buf.size()));
  }

  index_t rows, cols;
  std::vector<T> buf;
};

/// "op d0 d1 …" followed by each word.
std::string shape(const char* op, std::initializer_list<index_t> dims,
                  std::initializer_list<std::string_view> words) {
  std::string s = op;
  for (index_t d : dims) s += " " + std::to_string(d);
  for (std::string_view w : words) (s += " ") += w;
  return s;
}

template <typename T>
void dump_host_blas(const char* type) {
  std::printf("== host blas %s\n", type);
  Rng fill(11);
  const index_t gemm_shapes[][3] = {{1, 1, 1},    {7, 5, 9},     {33, 64, 31},
                                    {97, 130, 8}, {520, 9, 40},  {13, 520, 65},
                                    {64, 31, 520}, {263, 130, 97}};
  // (alpha, beta): the recursion's update, a plain product, a general one.
  const double gemm_scalars[][2] = {{-1.0, 1.0}, {1.0, 0.0}, {0.3, -0.5}};
  for (Trans ta : {Trans::NoTrans, Trans::Trans})
    for (Trans tb : {Trans::NoTrans, Trans::Trans})
      for (const auto& ab : gemm_scalars)
        for (const auto& s : gemm_shapes) {
          const index_t m = s[0], n = s[1], k = s[2];
          HostMatrix<T> a(fill, ta == Trans::NoTrans ? m : k, ta == Trans::NoTrans ? k : m);
          HostMatrix<T> b(fill, tb == Trans::NoTrans ? k : n, tb == Trans::NoTrans ? n : k);
          HostMatrix<T> c(fill, m, n);
          blas::gemm<T>(ta, tb, T(ab[0]), a.view(), b.view(), T(ab[1]), c.view());
          c.print(shape("gemm", {m, n, k},
                        {to_string(ta), to_string(tb), std::to_string(ab[0])}));
        }

  const index_t syrk_shapes[][2] = {{1, 1}, {9, 40}, {64, 64}, {130, 97}, {520, 33}, {263, 263}};
  for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
    for (Trans trans : {Trans::NoTrans, Trans::Trans})
      for (const auto& ab : {gemm_scalars[0], gemm_scalars[2]})
        for (const auto& s : syrk_shapes) {
          const index_t n = s[0], k = s[1];
          HostMatrix<T> a(fill, trans == Trans::NoTrans ? n : k, trans == Trans::NoTrans ? k : n);
          HostMatrix<T> c(fill, n, n, true);
          blas::syrk<T>(uplo, trans, T(ab[0]), a.view(), T(ab[1]), c.view());
          c.print(shape("syrk", {n, k}, {to_string(uplo), to_string(trans), std::to_string(ab[0])}));
        }

  const index_t tri_shapes[][2] = {{9, 40}, {130, 64}, {520, 33}, {64, 263}};
  for (Side side : {Side::Left, Side::Right})
    for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
      for (Trans trans : {Trans::NoTrans, Trans::Trans})
        for (Diag diag : {Diag::NonUnit, Diag::Unit})
          for (const double alpha : {1.0, -1.25})
            for (const auto& s : tri_shapes) {
              const index_t m = s[0], n = s[1], ka = side == Side::Left ? m : n;
              HostMatrix<T> a(fill, ka, ka, true);
              HostMatrix<T> x(fill, m, n), y(fill, m, n);
              blas::trsm<T>(side, uplo, trans, diag, T(alpha), a.view(), x.view());
              blas::trmm<T>(side, uplo, trans, diag, T(alpha), a.view(), y.view());
              const std::string a_str = std::to_string(alpha);
              x.print(shape("trsm", {m, n}, {to_string(side), to_string(uplo), to_string(trans),
                                             to_string(diag), a_str}));
              y.print(shape("trmm", {m, n}, {to_string(side), to_string(uplo), to_string(trans),
                                             to_string(diag), a_str}));
            }

  for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
    for (const index_t n : {1, 7, 64, 65, 130, 200, 257, 333, 520}) {
      HostMatrix<T> a(fill, n, n, true);
      // n = 200 is not positive definite: a pivot fails inside the matrix.
      if (n == 200) a.view()(150, 150) = T(-1e6);
      const int info = blas::potrf<T>(uplo, a.view());
      a.print(shape("potrf", {n}, {to_string(uplo), "info", std::to_string(info)}));
    }
}

template <typename T>
void dump_type(sim::ExecMode mode, const char* type) {
  Queue q(sim::DeviceSpec::k40c(), mode);
  Dumper d(q);
  Rng fill(7);
  std::printf("== %s %s\n", mode == sim::ExecMode::Full ? "full" : "timing", type);
  dump_cholesky<T>(q, d, fill);
  dump_blas<T>(q, d, fill);
  if constexpr (!is_complex_v<T>) {
    dump_classic<T>(q, d, fill);
    dump_lu<T>(q, d, fill);
    std::vector<int> rows = kSizes;
    for (std::size_t k = 0; k < rows.size(); ++k) rows[k] += static_cast<int>(k % 5);
    dump_qr<T>(q, d, fill, rows, kSizes, true);
    // Wide matrices (m < n) whose last panel is narrower than the panel
    // width, each alone and all in one batch: their trailing columns reach
    // past max_n − j − NB.
    std::printf("== wide qr\n");
    const std::vector<int> wide_m{8, 40, 40, 40, 100, 64, 0, 5};
    const std::vector<int> wide_n{30, 60, 114, 100, 40, 64, 9, 0};
    for (std::size_t k = 0; k < wide_m.size(); ++k)
      dump_qr<T>(q, d, fill, {wide_m[k]}, {wide_n[k]}, false);
    dump_qr<T>(q, d, fill, wide_m, wide_n, false);
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags(argv[0]).parse(argc, argv);
  dump_host_blas<float>("s");
  dump_host_blas<double>("d");
  dump_host_blas<std::complex<float>>("c");
  dump_host_blas<std::complex<double>>("z");
  for (sim::ExecMode mode : {sim::ExecMode::Full, sim::ExecMode::TimingOnly}) {
    dump_type<float>(mode, "s");
    dump_type<double>(mode, "d");
    dump_type<std::complex<float>>(mode, "c");
    dump_type<std::complex<double>>(mode, "z");
  }
  return 0;
}
