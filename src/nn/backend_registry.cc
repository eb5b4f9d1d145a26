#include "nn/backend_registry.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#include "nn/kernels_fused.h"
#include "nn/kernels_naive.h"
#include "nn/kernels_simd.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace equitensor {
namespace backend {
namespace {

/// Fully-resolved base-op kernel set for one executable backend.
struct KernelTable {
  Conv1dFwdFn conv1d_fwd;
  Conv1dBwdFn conv1d_bwd;
  Conv2dFwdFn conv2d_fwd;
  Conv2dBwdFn conv2d_bwd;
  Conv3dFwdFn conv3d_fwd;
  Conv3dBwdFn conv3d_bwd;
  MatMulFn matmul;
};

/// The fused-op kernels exist only under "fast" — `reference`
/// dispatches them through the decomposition below — so they get
/// their own table instead of rows in KernelTable (where
/// ResolveKernel would abort for reference).
struct FusedOpTable {
  ConvBiasActFwdFn cba_fwd;
  ConvBiasActBwdFn cba_bwd;
  ConcatConvBiasActFwdFn ccba_fwd;
  ConcatConvBiasActBwdFn ccba_bwd;
};

/// Everything a dispatch resolves, for one registry version. Check
/// mode reads both base tables and compares.
struct ResolvedTables {
  uint64_t version;
  KernelTable reference;
  KernelTable fast;
  FusedOpTable fused;
};

// (op key -> backend name -> implementation), guarded by `mu`. Hot
// dispatch never touches the map or a mutex: it loads `tables` — an
// immutable snapshot published through an atomic pointer — and only
// rebuilds (under `rebuild_mu`) when a registration has bumped
// `version` since the snapshot was resolved, so a test that shims a
// kernel by re-registering sees the shim on its next dispatch.
// Superseded snapshots stay owned by `built`, because a concurrent
// dispatch may still be reading one; rebuilds happen once at startup
// and then only on re-registration, so that list stays tiny.
struct Registry {
  std::mutex mu;
  std::map<std::string, std::map<std::string, void (*)()>> ops;
  std::atomic<uint64_t> version{0};
  std::mutex rebuild_mu;
  std::atomic<const ResolvedTables*> tables{nullptr};
  std::vector<std::unique_ptr<const ResolvedTables>> built;
};

Registry& GetRegistry() {
  static Registry* r = new Registry();  // never destroyed
  return *r;
}

// Built-in kernel sets register on first use: a static archive drops
// TUs nothing references, so self-registering global constructors
// would silently vanish — registration is an explicit, idempotent call.
void EnsureBuiltinsRegistered() {
  RegisterNaiveKernels();
  RegisterSimdKernels();
  RegisterFusedKernels();
}

constexpr Backend kAllBackends[] = {Backend::kReference, Backend::kFast,
                                    Backend::kCheck};

std::atomic<int> g_backend{-1};  // -1 = unset, else static_cast<Backend>

Backend BackendFromEnv() {
  const char* env = std::getenv("ET_BACKEND");
  if (env == nullptr || env[0] == '\0') return Backend::kFast;
  Backend b;
  ET_CHECK(ParseBackend(env, &b))
      << "ET_BACKEND=" << env << " is not a backend (" << BackendNameList()
      << ")";
  return b;
}

Backend ActiveBackend() {
  int b = g_backend.load(std::memory_order_relaxed);
  if (b < 0) {
    b = static_cast<int>(BackendFromEnv());
    // First resolution wins; concurrent first calls agree because the
    // env var is stable.
    g_backend.store(b, std::memory_order_relaxed);
  }
  return static_cast<Backend>(b);
}

KernelTable BuildTable(const char* name) {
  KernelTable t;
  t.conv1d_fwd = ResolveKernelFn<Conv1dFwdFn>("conv1d_fwd", name);
  t.conv1d_bwd = ResolveKernelFn<Conv1dBwdFn>("conv1d_bwd", name);
  t.conv2d_fwd = ResolveKernelFn<Conv2dFwdFn>("conv2d_fwd", name);
  t.conv2d_bwd = ResolveKernelFn<Conv2dBwdFn>("conv2d_bwd", name);
  t.conv3d_fwd = ResolveKernelFn<Conv3dFwdFn>("conv3d_fwd", name);
  t.conv3d_bwd = ResolveKernelFn<Conv3dBwdFn>("conv3d_bwd", name);
  t.matmul = ResolveKernelFn<MatMulFn>("matmul", name);
  return t;
}

const ResolvedTables& RebuildTables() {
  EnsureBuiltinsRegistered();
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.rebuild_mu);
  // Tag the snapshot with the version read BEFORE resolving: a
  // registration racing with this build leaves the tag stale, so the
  // next dispatch rebuilds again.
  const uint64_t v = r.version.load(std::memory_order_acquire);
  const ResolvedTables* current = r.tables.load(std::memory_order_acquire);
  if (current != nullptr && current->version == v) return *current;
  auto t = std::make_unique<ResolvedTables>();
  t->version = v;
  t->reference = BuildTable("reference");
  t->fast = BuildTable("fast");
  t->fused.cba_fwd =
      ResolveKernelFn<ConvBiasActFwdFn>("conv_bias_act_fwd", "fast");
  t->fused.cba_bwd =
      ResolveKernelFn<ConvBiasActBwdFn>("conv_bias_act_bwd", "fast");
  t->fused.ccba_fwd = ResolveKernelFn<ConcatConvBiasActFwdFn>(
      "concat_conv_bias_act_fwd", "fast");
  t->fused.ccba_bwd = ResolveKernelFn<ConcatConvBiasActBwdFn>(
      "concat_conv_bias_act_bwd", "fast");
  const ResolvedTables* published = t.get();
  r.built.push_back(std::move(t));
  r.tables.store(published, std::memory_order_release);
  return *published;
}

const ResolvedTables& Tables() {
  Registry& r = GetRegistry();
  const ResolvedTables* t = r.tables.load(std::memory_order_acquire);
  if (t != nullptr &&
      t->version == r.version.load(std::memory_order_acquire)) {
    return *t;
  }
  return RebuildTables();
}

const KernelTable& TableFor(Backend b) {
  ET_CHECK(b != Backend::kCheck) << "check mode has no single table";
  const ResolvedTables& t = Tables();
  return b == Backend::kReference ? t.reference : t.fast;
}

const FusedOpTable& FusedOps() { return Tables().fused; }

// What check mode compared, for its failure text: the base ops run the
// fast im2col + GEMM kernels against the reference loops, the fused
// ops the fused fast kernels against their reference decomposition.
constexpr const char* kBaseOpPaths =
    "the fast kernel diverges from the reference kernel";
constexpr const char* kFusedOpPaths =
    "the fused fast kernel diverges from its reference decomposition";

void CompareOrDie(const char* op, const char* paths, const Tensor& ref,
                  const Tensor& got, int64_t reduction_length) {
  ET_CHECK(ref.SameShape(got));
  const float tol = CheckTolerance(reduction_length, ref.AbsMax());
  float max_diff = 0.0f;
  int64_t where = -1;
  for (int64_t i = 0; i < ref.size(); ++i) {
    const float diff = std::fabs(ref[i] - got[i]);
    if (diff > max_diff) {
      max_diff = diff;
      where = i;
    }
  }
  ET_CHECK(max_diff <= tol)
      << "backend check failed for " << op << ": " << paths << " by "
      << max_diff << " (tolerance " << tol << ") at linear index " << where
      << ", shape " << ref.ShapeString();
  ET_METRIC_COUNTER_ADD("backend.check.passes", 1);
}

// Check-mode conv dispatch: run reference and fast into separate
// buffers, compare within the documented bound, keep the fast result.
// Backward kernels accumulate, so the comparison runs on zeroed temps
// which are then added into the caller's gradients. Check mode is a
// verification mode — its extra buffers are ordinary allocations, not
// arena leases, and its cost is ~2x plus a compare.
template <typename Dims, typename FwdFn>
void CheckedConvFwd(const char* op, FwdFn ref_fn, FwdFn fast_fn,
                    const Dims& d, const Tensor& x, const Tensor& w,
                    Tensor* out, int64_t reduction) {
  Tensor ref(out->shape());
  ref_fn(d, x, w, &ref);
  fast_fn(d, x, w, out);
  CompareOrDie(op, kBaseOpPaths, ref, *out, reduction);
}

template <typename Dims, typename BwdFn>
void CheckedConvBwd(const char* op, BwdFn ref_fn, BwdFn fast_fn,
                    const Dims& d, const Tensor& x, const Tensor& w,
                    const Tensor& gout, Tensor* gx, Tensor* gw,
                    int64_t gx_reduction, int64_t gw_reduction) {
  Tensor ref_gx, ref_gw, fast_gx, fast_gw;
  if (gx) {
    ref_gx = Tensor(x.shape());
    fast_gx = Tensor(x.shape());
  }
  if (gw) {
    ref_gw = Tensor(w.shape());
    fast_gw = Tensor(w.shape());
  }
  ref_fn(d, x, w, gout, gx ? &ref_gx : nullptr, gw ? &ref_gw : nullptr);
  fast_fn(d, x, w, gout, gx ? &fast_gx : nullptr, gw ? &fast_gw : nullptr);
  if (gx) {
    CompareOrDie(op, kBaseOpPaths, ref_gx, fast_gx, gx_reduction);
    for (int64_t i = 0; i < gx->size(); ++i) (*gx)[i] += fast_gx[i];
  }
  if (gw) {
    CompareOrDie(op, kBaseOpPaths, ref_gw, fast_gw, gw_reduction);
    for (int64_t i = 0; i < gw->size(); ++i) (*gw)[i] += fast_gw[i];
  }
}

// ---------------------------------------------------------------------------
// Fused-op decomposition. The reference backend executes a fused
// dispatch as its constituent ops: conv through the reference kernel
// table, bias/activation/bias-grad through the shared eager-expression
// helpers (kernels_fused.h). The result is bitwise equal to the eager
// op chain on reference — and it doubles as the oracle check mode
// replays every fused dispatch against.

Conv1dDims To1d(const ConvBiasActDims& d) {
  return {d.batch, d.cin, d.t, d.cout, d.k, d.pad};
}
Conv2dDims To2d(const ConvBiasActDims& d) {
  return {d.batch, d.cin, d.w, d.h, d.cout, d.k, d.pad};
}
Conv3dDims To3d(const ConvBiasActDims& d) {
  return {d.batch, d.cin, d.w, d.h, d.t, d.cout, d.k, d.pad};
}

int64_t FusedSpatialVolume(const ConvBiasActDims& d) { return d.w * d.h * d.t; }

int64_t FusedKernelVolume(const ConvBiasActDims& d) {
  int64_t kv = d.k;
  for (int64_t r = 1; r < d.rank; ++r) kv *= d.k;
  return kv;
}

// Materializes the axis-1 concat of `parts` — only on the decomposed
// path; the fused kernels gather from the parts directly.
Tensor MaterializeConcat(const ConvBiasActDims& d,
                         const std::vector<const Tensor*>& parts) {
  const int64_t pvol = FusedSpatialVolume(d);
  std::vector<int64_t> shape = {d.batch, d.cin};
  if (d.rank >= 2) {
    shape.push_back(d.w);
    shape.push_back(d.h);
  }
  if (d.rank != 2) shape.push_back(d.t);
  Tensor merged(std::move(shape));
  int64_t off = 0;
  for (const Tensor* part : parts) {
    const int64_t c_part = part->dim(1);
    for (int64_t n = 0; n < d.batch; ++n) {
      std::memcpy(merged.data() + (n * d.cin + off) * pvol,
                  part->data() + n * c_part * pvol,
                  static_cast<size_t>(c_part * pvol) * sizeof(float));
    }
    off += c_part;
  }
  return merged;
}

void DecomposedConvFwd(const ConvBiasActDims& d, const Tensor& x,
                       const Tensor& w, Tensor* out) {
  const KernelTable& t = TableFor(Backend::kReference);
  switch (d.rank) {
    case 1:
      t.conv1d_fwd(To1d(d), x, w, out);
      return;
    case 2:
      t.conv2d_fwd(To2d(d), x, w, out);
      return;
    default:
      t.conv3d_fwd(To3d(d), x, w, out);
      return;
  }
}

void DecomposedConvBwd(const ConvBiasActDims& d, const Tensor& x,
                       const Tensor& w, const Tensor& gout, Tensor* gx,
                       Tensor* gw) {
  const KernelTable& t = TableFor(Backend::kReference);
  switch (d.rank) {
    case 1:
      t.conv1d_bwd(To1d(d), x, w, gout, gx, gw);
      return;
    case 2:
      t.conv2d_bwd(To2d(d), x, w, gout, gx, gw);
      return;
    default:
      t.conv3d_bwd(To3d(d), x, w, gout, gx, gw);
      return;
  }
}

void DecomposedCbaFwd(const ConvBiasActDims& d, const Tensor& x,
                      const Tensor& w, const Tensor& bias, Tensor* out) {
  // The fused op overwrites `out`; the base conv kernels add into a
  // zeroed buffer, so clear first (in check mode the caller's buffer
  // already holds the fused result).
  std::memset(out->data(), 0,
              static_cast<size_t>(out->size()) * sizeof(float));
  DecomposedConvFwd(d, x, w, out);
  FusedBiasActEpilogue(d.act, d.batch, d.cout, FusedSpatialVolume(d),
                       bias.data(), out->data());
}

// The decomposed backward derives act' from the PRODUCED output `y`
// (whichever kernel produced it), exactly like the eager activation
// backward — so in check mode the fused and reference paths share one
// relu mask and differences reflect conv associativity only.
void DecomposedCbaBwd(const ConvBiasActDims& d, const Tensor& x,
                      const Tensor& w, const Tensor& y, const Tensor& gout,
                      Tensor* gx, Tensor* gw, Tensor* gb) {
  const int64_t pvol = FusedSpatialVolume(d);
  Tensor gpre_t;
  const Tensor* gpre = &gout;
  if (d.act != Act::kLinear) {
    gpre_t = Tensor(gout.shape());
    FusedGradPreAct(d.act, gout.data(), y.data(), gout.size(), gpre_t.data());
    gpre = &gpre_t;
  }
  if (gb) {
    FusedAccumulateBiasGrad(d.batch, d.cout, pvol, gpre->data(), gb->data());
  }
  if (gx || gw) DecomposedConvBwd(d, x, w, *gpre, gx, gw);
}

void DecomposedCcbaFwd(const ConvBiasActDims& d,
                       const std::vector<const Tensor*>& parts, const Tensor& w,
                       const Tensor& bias, Tensor* out) {
  const Tensor merged = MaterializeConcat(d, parts);
  DecomposedCbaFwd(d, merged, w, bias, out);
}

void DecomposedCcbaBwd(const ConvBiasActDims& d,
                       const std::vector<const Tensor*>& parts, const Tensor& w,
                       const Tensor& y, const Tensor& gout,
                       const std::vector<Tensor*>& gparts, Tensor* gw,
                       Tensor* gb) {
  const int64_t pvol = FusedSpatialVolume(d);
  bool any_gx = false;
  for (Tensor* gp : gparts) any_gx |= (gp != nullptr);
  const Tensor merged = MaterializeConcat(d, parts);
  Tensor gx_merged;
  if (any_gx) gx_merged = Tensor(merged.shape());
  DecomposedCbaBwd(d, merged, w, y, gout, any_gx ? &gx_merged : nullptr, gw,
                   gb);
  if (!any_gx) return;
  // Eager concat backward: each part receives its channel slice of the
  // merged gradient (accumulating, per the fused-op contract).
  int64_t off = 0;
  for (size_t pi = 0; pi < parts.size(); ++pi) {
    const int64_t c_part = parts[pi]->dim(1);
    if (gparts[pi] != nullptr) {
      for (int64_t n = 0; n < d.batch; ++n) {
        const float* src = gx_merged.data() + (n * d.cin + off) * pvol;
        float* dst = gparts[pi]->data() + n * c_part * pvol;
        for (int64_t i = 0; i < c_part * pvol; ++i) dst[i] += src[i];
      }
    }
    off += c_part;
  }
}

}  // namespace

void RegisterKernel(const std::string& op_key, const std::string& backend,
                    void (*fn)()) {
  ET_CHECK(fn != nullptr) << "null kernel for " << op_key << "/" << backend;
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.ops[op_key][backend] = fn;
  r.version.fetch_add(1, std::memory_order_release);
}

void* ResolveKernel(const std::string& op_key, const std::string& backend) {
  EnsureBuiltinsRegistered();
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto op_it = r.ops.find(op_key);
  ET_CHECK(op_it != r.ops.end()) << "unknown op key " << op_key;
  auto be_it = op_it->second.find(backend);
  ET_CHECK(be_it != op_it->second.end())
      << "op " << op_key << " has no '" << backend << "' implementation";
  return reinterpret_cast<void*>(be_it->second);
}

std::vector<std::pair<std::string, std::string>> ListKernels() {
  EnsureBuiltinsRegistered();
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [op, impls] : r.ops) {
    for (const auto& [name, fn] : impls) {
      (void)fn;
      out.emplace_back(op, name);
    }
  }
  return out;
}

bool ParseBackend(const std::string& name, Backend* out) {
  for (const Backend b : kAllBackends) {
    if (name == BackendName(b)) {
      *out = b;
      return true;
    }
  }
  return false;
}

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kReference:
      return "reference";
    case Backend::kFast:
      return "fast";
    case Backend::kCheck:
      return "check";
  }
  return "unknown";
}

std::vector<std::string> BackendNames() {
  std::vector<std::string> names;
  for (const Backend b : kAllBackends) names.emplace_back(BackendName(b));
  return names;
}

std::string BackendNameList() {
  std::string list;
  for (const std::string& name : BackendNames()) {
    if (!list.empty()) list += " | ";
    list += name;
  }
  return list;
}

void SetBackend(Backend b) {
  g_backend.store(static_cast<int>(b), std::memory_order_relaxed);
}

Backend CurrentBackend() { return ActiveBackend(); }

bool SimdAcceleratorActive() {
  EnsureBuiltinsRegistered();
  return SimdKernelsUseAvx2();
}

float CheckTolerance(int64_t reduction_length, float ref_absmax) {
  constexpr float kCheckRelTol = 1e-5f;
  const float len = static_cast<float>(reduction_length < 1 ? 1
                                                            : reduction_length);
  const float scale = ref_absmax > 1.0f ? ref_absmax : 1.0f;
  return kCheckRelTol * std::sqrt(len) * scale;
}

void Conv1dForward(const Conv1dDims& d, const Tensor& x, const Tensor& w,
                   Tensor* out) {
  const Backend b = ActiveBackend();
  if (b == Backend::kCheck) {
    CheckedConvFwd("conv1d_fwd", TableFor(Backend::kReference).conv1d_fwd,
                   TableFor(Backend::kFast).conv1d_fwd, d, x, w, out,
                   d.cin * d.k);
    return;
  }
  TableFor(b).conv1d_fwd(d, x, w, out);
}

void Conv1dBackward(const Conv1dDims& d, const Tensor& x, const Tensor& w,
                    const Tensor& gout, Tensor* gx, Tensor* gw) {
  const Backend b = ActiveBackend();
  if (b == Backend::kCheck) {
    CheckedConvBwd("conv1d_bwd", TableFor(Backend::kReference).conv1d_bwd,
                   TableFor(Backend::kFast).conv1d_bwd, d, x, w, gout, gx, gw,
                   d.cout * d.k, d.batch * d.t);
    return;
  }
  TableFor(b).conv1d_bwd(d, x, w, gout, gx, gw);
}

void Conv2dForward(const Conv2dDims& d, const Tensor& x, const Tensor& w,
                   Tensor* out) {
  const Backend b = ActiveBackend();
  if (b == Backend::kCheck) {
    CheckedConvFwd("conv2d_fwd", TableFor(Backend::kReference).conv2d_fwd,
                   TableFor(Backend::kFast).conv2d_fwd, d, x, w, out,
                   d.cin * d.k * d.k);
    return;
  }
  TableFor(b).conv2d_fwd(d, x, w, out);
}

void Conv2dBackward(const Conv2dDims& d, const Tensor& x, const Tensor& w,
                    const Tensor& gout, Tensor* gx, Tensor* gw) {
  const Backend b = ActiveBackend();
  if (b == Backend::kCheck) {
    CheckedConvBwd("conv2d_bwd", TableFor(Backend::kReference).conv2d_bwd,
                   TableFor(Backend::kFast).conv2d_bwd, d, x, w, gout, gx, gw,
                   d.cout * d.k * d.k, d.batch * d.w * d.h);
    return;
  }
  TableFor(b).conv2d_bwd(d, x, w, gout, gx, gw);
}

void Conv3dForward(const Conv3dDims& d, const Tensor& x, const Tensor& w,
                   Tensor* out) {
  const Backend b = ActiveBackend();
  if (b == Backend::kCheck) {
    CheckedConvFwd("conv3d_fwd", TableFor(Backend::kReference).conv3d_fwd,
                   TableFor(Backend::kFast).conv3d_fwd, d, x, w, out,
                   d.cin * d.k * d.k * d.k);
    return;
  }
  TableFor(b).conv3d_fwd(d, x, w, out);
}

void Conv3dBackward(const Conv3dDims& d, const Tensor& x, const Tensor& w,
                    const Tensor& gout, Tensor* gx, Tensor* gw) {
  const Backend b = ActiveBackend();
  if (b == Backend::kCheck) {
    CheckedConvBwd("conv3d_bwd", TableFor(Backend::kReference).conv3d_bwd,
                   TableFor(Backend::kFast).conv3d_bwd, d, x, w, gout, gx, gw,
                   d.cout * d.k * d.k * d.k, d.batch * d.w * d.h * d.t);
    return;
  }
  TableFor(b).conv3d_bwd(d, x, w, gout, gx, gw);
}

void MatMul(const MatMulSpec& spec, const float* a, const float* b, float* c) {
  const Backend be = ActiveBackend();
  if (be == Backend::kCheck) {
    MatMulSpec fresh = spec;
    fresh.accumulate = false;
    Tensor ref({spec.m, spec.n});
    Tensor fast({spec.m, spec.n});
    TableFor(Backend::kReference).matmul(fresh, a, b, ref.data());
    TableFor(Backend::kFast).matmul(fresh, a, b, fast.data());
    CompareOrDie("matmul", kBaseOpPaths, ref, fast, spec.k);
    if (spec.accumulate) {
      for (int64_t i = 0; i < fast.size(); ++i) c[i] += fast[i];
    } else {
      for (int64_t i = 0; i < fast.size(); ++i) c[i] = fast[i];
    }
    return;
  }
  TableFor(be).matmul(spec, a, b, c);
}

void ConvBiasActForward(const ConvBiasActDims& d, const Tensor& x,
                        const Tensor& w, const Tensor& bias, Tensor* out) {
  const Backend b = ActiveBackend();
  if (b == Backend::kReference) {
    DecomposedCbaFwd(d, x, w, bias, out);
    return;
  }
  FusedOps().cba_fwd(d, x, w, bias, out);
  if (b == Backend::kCheck) {
    Tensor ref(out->shape());
    DecomposedCbaFwd(d, x, w, bias, &ref);
    // +1 term: the bias add on top of the cin·k^rank conv reduction.
    CompareOrDie("conv_bias_act_fwd", kFusedOpPaths, ref, *out,
                 d.cin * FusedKernelVolume(d) + 1);
  }
}

void ConvBiasActBackward(const ConvBiasActDims& d, const Tensor& x,
                         const Tensor& w, const Tensor& y, const Tensor& gout,
                         Tensor* gx, Tensor* gw, Tensor* gb) {
  const Backend b = ActiveBackend();
  if (b == Backend::kReference) {
    DecomposedCbaBwd(d, x, w, y, gout, gx, gw, gb);
    return;
  }
  if (b == Backend::kFast) {
    FusedOps().cba_bwd(d, x, w, y, gout, gx, gw, gb);
    return;
  }
  // Check: the fused backward accumulates, so both paths run on zeroed
  // temps; the fused results are compared then added into the caller's
  // gradients.
  Tensor f_gx, f_gw, f_gb, r_gx, r_gw, r_gb;
  if (gx) {
    f_gx = Tensor(x.shape());
    r_gx = Tensor(x.shape());
  }
  if (gw) {
    f_gw = Tensor(w.shape());
    r_gw = Tensor(w.shape());
  }
  if (gb) {
    f_gb = Tensor({d.cout});
    r_gb = Tensor({d.cout});
  }
  FusedOps().cba_bwd(d, x, w, y, gout, gx ? &f_gx : nullptr,
                     gw ? &f_gw : nullptr, gb ? &f_gb : nullptr);
  DecomposedCbaBwd(d, x, w, y, gout, gx ? &r_gx : nullptr,
                   gw ? &r_gw : nullptr, gb ? &r_gb : nullptr);
  const int64_t kvol = FusedKernelVolume(d);
  const int64_t pvol = FusedSpatialVolume(d);
  if (gx) {
    CompareOrDie("conv_bias_act_bwd", kFusedOpPaths, r_gx, f_gx,
                 d.cout * kvol);
    for (int64_t i = 0; i < gx->size(); ++i) (*gx)[i] += f_gx[i];
  }
  if (gw) {
    CompareOrDie("conv_bias_act_bwd", kFusedOpPaths, r_gw, f_gw,
                 d.batch * pvol);
    for (int64_t i = 0; i < gw->size(); ++i) (*gw)[i] += f_gw[i];
  }
  if (gb) {
    CompareOrDie("conv_bias_act_bwd", kFusedOpPaths, r_gb, f_gb,
                 d.batch * pvol);
    for (int64_t i = 0; i < gb->size(); ++i) (*gb)[i] += f_gb[i];
  }
}

void ConcatConvBiasActForward(const ConvBiasActDims& d,
                              const std::vector<const Tensor*>& parts,
                              const Tensor& w, const Tensor& bias,
                              Tensor* out) {
  const Backend b = ActiveBackend();
  if (b == Backend::kReference) {
    DecomposedCcbaFwd(d, parts, w, bias, out);
    return;
  }
  FusedOps().ccba_fwd(d, parts, w, bias, out);
  if (b == Backend::kCheck) {
    Tensor ref(out->shape());
    DecomposedCcbaFwd(d, parts, w, bias, &ref);
    CompareOrDie("concat_conv_bias_act_fwd", kFusedOpPaths, ref, *out,
                 d.cin * FusedKernelVolume(d) + 1);
  }
}

void ConcatConvBiasActBackward(const ConvBiasActDims& d,
                               const std::vector<const Tensor*>& parts,
                               const Tensor& w, const Tensor& y,
                               const Tensor& gout,
                               const std::vector<Tensor*>& gparts, Tensor* gw,
                               Tensor* gb) {
  const Backend b = ActiveBackend();
  if (b == Backend::kReference) {
    DecomposedCcbaBwd(d, parts, w, y, gout, gparts, gw, gb);
    return;
  }
  if (b == Backend::kFast) {
    FusedOps().ccba_bwd(d, parts, w, y, gout, gparts, gw, gb);
    return;
  }
  std::vector<Tensor> f_gp_store(parts.size()), r_gp_store(parts.size());
  std::vector<Tensor*> f_gp(parts.size(), nullptr), r_gp(parts.size(), nullptr);
  for (size_t i = 0; i < parts.size(); ++i) {
    if (gparts[i] != nullptr) {
      f_gp_store[i] = Tensor(parts[i]->shape());
      r_gp_store[i] = Tensor(parts[i]->shape());
      f_gp[i] = &f_gp_store[i];
      r_gp[i] = &r_gp_store[i];
    }
  }
  Tensor f_gw, f_gb, r_gw, r_gb;
  if (gw) {
    f_gw = Tensor(w.shape());
    r_gw = Tensor(w.shape());
  }
  if (gb) {
    f_gb = Tensor({d.cout});
    r_gb = Tensor({d.cout});
  }
  FusedOps().ccba_bwd(d, parts, w, y, gout, f_gp, gw ? &f_gw : nullptr,
                      gb ? &f_gb : nullptr);
  DecomposedCcbaBwd(d, parts, w, y, gout, r_gp, gw ? &r_gw : nullptr,
                    gb ? &r_gb : nullptr);
  const int64_t kvol = FusedKernelVolume(d);
  const int64_t pvol = FusedSpatialVolume(d);
  for (size_t i = 0; i < parts.size(); ++i) {
    if (gparts[i] == nullptr) continue;
    CompareOrDie("concat_conv_bias_act_bwd", kFusedOpPaths, r_gp_store[i],
                 f_gp_store[i], d.cout * kvol);
    for (int64_t j = 0; j < gparts[i]->size(); ++j) {
      (*gparts[i])[j] += f_gp_store[i][j];
    }
  }
  if (gw) {
    CompareOrDie("concat_conv_bias_act_bwd", kFusedOpPaths, r_gw, f_gw,
                 d.batch * pvol);
    for (int64_t i = 0; i < gw->size(); ++i) (*gw)[i] += f_gw[i];
  }
  if (gb) {
    CompareOrDie("concat_conv_bias_act_bwd", kFusedOpPaths, r_gb, f_gb,
                 d.batch * pvol);
    for (int64_t i = 0; i < gb->size(); ++i) (*gb)[i] += f_gb[i];
  }
}

}  // namespace backend
}  // namespace equitensor
