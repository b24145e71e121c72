#include "rl/perceptron.hh"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>

#include "sim/logging.hh"
#include "sim/text_tokens.hh"

namespace cohmeleon::rl
{

namespace
{

/** splitmix64 finalizer: the platform-independent integer mix every
 *  bucket index is derived from. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Position of the highest set bit plus one (0 for 0): the log2
 *  magnitude bucket of a byte count. */
std::uint64_t
log2Bucket(std::uint64_t v)
{
    return v == 0 ? 0
                  : static_cast<std::uint64_t>(
                        64 - __builtin_clzll(v));
}

/** Quarter-granularity footprint-vs-capacity ratio, saturated at 64
 *  (16x the capacity) so huge footprints share one bucket. */
std::uint64_t
ratioBucket(std::uint64_t bytes, std::uint64_t capacity)
{
    const std::uint64_t cap = std::max<std::uint64_t>(capacity, 1);
    const std::uint64_t quarters = bytes / std::max<std::uint64_t>(
                                               cap / 4, 1);
    return std::min<std::uint64_t>(quarters, 64);
}

/** Fixed-point (1/16) quantization of a small non-negative average,
 *  saturated so degenerate inputs stay in-range. */
std::uint64_t
fixed16(double v)
{
    if (!std::isfinite(v) || v <= 0.0)
        return 0;
    const double scaled = v * 16.0;
    constexpr double kCap = double(1u << 20);
    return static_cast<std::uint64_t>(
        std::llround(std::min(scaled, kCap)));
}

/**
 * The fixed feature catalog: which scalar indices each of the (up to)
 * kMaxTables tables hashes. A spec with fewer tables takes a prefix,
 * so a 4-table model's buckets are a strict subset of a 16-table
 * model's — growing `tables` only adds perspectives. Table 0 is the
 * full bucketed tuple (the tabular view), so tried()/stateVisits()
 * keyed on it degrade gracefully to tabular-like semantics.
 */
constexpr unsigned kCatalogWidth = 14;
constexpr std::uint8_t kNoFeature = 0xff;
constexpr std::uint8_t
    kCatalog[ModelSpec::kMaxTables][kCatalogWidth] = {
        // t0: the bucketed Table-3 tuple
        {0, 1, 2, 3, 4, kNoFeature},
        // t1: raw contention (active fully-coh + per-tile averages)
        {5, 6, 7, kNoFeature},
        // t2: cache-capacity magnitudes
        {9, 10, 11, kNoFeature},
        // t3: tile vs acc footprint magnitude
        {8, 9, kNoFeature},
        // t4: footprint-vs-cache ratios
        {12, 13, kNoFeature},
        // t5..t9: bucketed attribute x raw magnitude cross terms
        {0, 5, 9, kNoFeature},
        {1, 6, 12, kNoFeature},
        {2, 7, 13, kNoFeature},
        {3, 8, 12, kNoFeature},
        {4, 9, 13, kNoFeature},
        // t10..t14: wider mixes
        {5, 9, kNoFeature},
        {6, 7, 8, kNoFeature},
        {0, 1, 2, 3, 4, 9, kNoFeature},
        {10, 11, 12, 13, kNoFeature},
        {5, 6, 7, 8, 9, kNoFeature},
        // t15: everything
        {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13},
};

} // namespace

PerceptronModel::PerceptronModel(const ModelSpec &spec) : spec_(spec)
{
    fatalIf(spec.kind != ModelSpec::Kind::kPerceptron,
            "PerceptronModel requires a perceptron spec, got '",
            toString(spec), "'");
    spec_.validate();
    tables_.assign(spec_.tables, std::vector<Entry>(buckets()));
}

std::unique_ptr<LearnedModel>
PerceptronModel::clone() const
{
    return std::make_unique<PerceptronModel>(*this);
}

void
PerceptronModel::featureScalars(const ModelFeatures &f,
                                std::uint64_t (&out)[kNumScalars])
{
    out[0] = f.tuple.fullyCohAcc;
    out[1] = f.tuple.nonCohPerTile;
    out[2] = f.tuple.toLlcPerTile;
    out[3] = f.tuple.tileFootprint;
    out[4] = f.tuple.accFootprint;
    out[5] = std::min<std::uint64_t>(f.raw.activeFullyCoh, 255);
    out[6] = fixed16(f.raw.avgNonCohPerTile);
    out[7] = fixed16(f.raw.avgToLlcPerTile);
    out[8] = log2Bucket(f.raw.avgTileFootprintBytes);
    out[9] = log2Bucket(f.raw.accFootprintBytes);
    out[10] = log2Bucket(f.raw.l2Bytes);
    out[11] = log2Bucket(f.raw.llcSliceBytes);
    out[12] = ratioBucket(f.raw.accFootprintBytes, f.raw.l2Bytes);
    out[13] =
        ratioBucket(f.raw.accFootprintBytes, f.raw.llcSliceBytes);
}

std::uint32_t
PerceptronModel::bucketOf(unsigned t, const ModelFeatures &f) const
{
    panic_if(t >= spec_.tables, "perceptron table index out of range");
    std::uint64_t scalars[kNumScalars];
    featureScalars(f, scalars);
    std::uint64_t h =
        mix64(0x636f686d656c656full ^ (std::uint64_t(t) + 1));
    for (unsigned i = 0; i < kCatalogWidth; ++i) {
        const std::uint8_t idx = kCatalog[t][i];
        if (idx == kNoFeature)
            break;
        h = mix64(h ^ scalars[idx]);
    }
    return static_cast<std::uint32_t>(h &
                                      ((std::uint64_t(1) << spec_.bits) -
                                       1));
}

void
PerceptronModel::qValues(const ModelFeatures &f,
                         double (&out)[kNumActions]) const
{
    double sum[kNumActions] = {};
    for (unsigned t = 0; t < spec_.tables; ++t) {
        const Entry &e = tables_[t][bucketOf(t, f)];
        for (unsigned a = 0; a < kNumActions; ++a)
            sum[a] += e.w[a];
    }
    for (unsigned a = 0; a < kNumActions; ++a)
        out[a] = sum[a] / spec_.tables;
}

bool
PerceptronModel::tried(const ModelFeatures &f, unsigned action) const
{
    panic_if(action >= kNumActions, "action out of range");
    return tables_[0][bucketOf(0, f)].touched[action];
}

std::uint64_t
PerceptronModel::stateVisits(const ModelFeatures &f) const
{
    const Entry &e = tables_[0][bucketOf(0, f)];
    std::uint64_t n = 0;
    for (std::uint64_t v : e.visits)
        n += v;
    return n;
}

unsigned
PerceptronModel::bestAction(const ModelFeatures &f,
                            std::uint8_t availMask) const
{
    unsigned mask = availMask & ((1u << kNumActions) - 1);
    panic_if(mask == 0, "no available action");
    double q[kNumActions];
    qValues(f, q);
    unsigned best = static_cast<unsigned>(__builtin_ctz(mask));
    double bestQ = q[best];
    mask &= mask - 1;
    while (mask) {
        const unsigned a = static_cast<unsigned>(__builtin_ctz(mask));
        mask &= mask - 1;
        if (q[a] > bestQ) {
            bestQ = q[a];
            best = a;
        }
    }
    return best;
}

void
PerceptronModel::update(const ModelFeatures &f, unsigned action,
                        double reward, double alpha)
{
    panic_if(action >= kNumActions, "action out of range");
    for (unsigned t = 0; t < spec_.tables; ++t) {
        Entry &e = tables_[t][bucketOf(t, f)];
        double &w = e.w[action];
        w = (1.0 - alpha) * w + alpha * reward;
        w = std::clamp(w, -kWeightClamp, kWeightClamp);
        e.touched[action] = true;
        ++e.visits[action];
    }
}

namespace
{

/** Same geometric-series mass as the Q-table recency merge. */
double
recencyMass(std::uint64_t visits, double d)
{
    if (d >= 1.0)
        return static_cast<double>(visits);
    return (1.0 - std::pow(d, static_cast<double>(visits))) /
           (1.0 - d);
}

} // namespace

void
PerceptronModel::merge(const LearnedModel &other, const MergeSpec &spec)
{
    const auto *o = dynamic_cast<const PerceptronModel *>(&other);
    fatalIf(o == nullptr, "cannot merge a '", toString(other.spec()),
            "' model into a perceptron model");
    fatalIf(!(o->spec_ == spec_), "cannot merge perceptron shapes '",
            toString(o->spec_), "' and '", toString(spec_), "'");
    spec.validate();
    double scale = 1.0;
    if (spec.kind == MergeSpec::Kind::kRewardNorm) {
        const double maxAbs = o->maxAbsQ();
        if (maxAbs > 0.0)
            scale = maxAbs;
    }
    for (unsigned t = 0; t < spec_.tables; ++t) {
        for (std::size_t b = 0; b < buckets(); ++b) {
            Entry &mine = tables_[t][b];
            const Entry &theirs = o->tables_[t][b];
            for (unsigned a = 0; a < kNumActions; ++a) {
                const std::uint64_t vo = theirs.visits[a];
                if (vo == 0)
                    continue;
                const std::uint64_t vm = mine.visits[a];
                const double qo = theirs.w[a] / scale;
                if (vm == 0) {
                    mine.w[a] = qo;
                } else {
                    double wm = static_cast<double>(vm);
                    double wo = static_cast<double>(vo);
                    if (spec.kind == MergeSpec::Kind::kRecency) {
                        wm = recencyMass(vm, spec.recencyDiscount);
                        wo = recencyMass(vo, spec.recencyDiscount);
                    }
                    mine.w[a] =
                        (wm * mine.w[a] + wo * qo) / (wm + wo);
                }
                mine.visits[a] = vm + vo;
                mine.touched[a] = true;
            }
        }
    }
}

double
PerceptronModel::maxAbsQ() const
{
    double maxAbs = 0.0;
    for (const auto &table : tables_)
        for (const Entry &e : table)
            for (unsigned a = 0; a < kNumActions; ++a)
                if (e.touched[a])
                    maxAbs = std::max(maxAbs, std::abs(e.w[a]));
    return maxAbs;
}

std::uint64_t
PerceptronModel::totalVisits() const
{
    // Every update() touches all tables once, and merges sum visit
    // counts, so the grand total is always an exact multiple of the
    // table count; dividing recovers the number of updates absorbed —
    // the same "training mass" a Q-table's totalVisits() reports.
    std::uint64_t n = 0;
    for (const auto &table : tables_)
        for (const Entry &e : table)
            for (std::uint64_t v : e.visits)
                n += v;
    return n / spec_.tables;
}

std::uint64_t
PerceptronModel::updatedEntries() const
{
    std::uint64_t n = 0;
    for (const auto &table : tables_)
        for (const Entry &e : table)
            for (bool t : e.touched)
                n += t ? 1 : 0;
    return n;
}

bool
PerceptronModel::allFinite() const
{
    for (const auto &table : tables_)
        for (const Entry &e : table)
            for (double w : e.w)
                if (!std::isfinite(w))
                    return false;
    return true;
}

void
PerceptronModel::save(std::ostream &os) const
{
    // Sparse rows over live buckets only, in (table, bucket) order:
    // the canonical form is unique per model state, so two saves are
    // byte-identical exactly when the models are.
    std::uint64_t rows = 0;
    for (const auto &table : tables_) {
        for (const Entry &e : table) {
            bool live = false;
            for (unsigned a = 0; a < kNumActions; ++a)
                live = live || e.touched[a] || e.visits[a] != 0 ||
                       e.w[a] != 0.0;
            rows += live ? 1 : 0;
        }
    }
    os.precision(17);
    os << "perceptron " << spec_.tables << ' ' << spec_.bits << ' '
       << rows << '\n';
    for (unsigned t = 0; t < spec_.tables; ++t) {
        for (std::size_t b = 0; b < buckets(); ++b) {
            const Entry &e = tables_[t][b];
            bool live = false;
            for (unsigned a = 0; a < kNumActions; ++a)
                live = live || e.touched[a] || e.visits[a] != 0 ||
                       e.w[a] != 0.0;
            if (!live)
                continue;
            os << t << ' ' << b;
            for (unsigned a = 0; a < kNumActions; ++a)
                os << ' ' << e.w[a];
            for (unsigned a = 0; a < kNumActions; ++a)
                os << ' ' << e.visits[a];
            os << '\n';
        }
    }
}

void
PerceptronModel::load(std::istream &is)
{
    std::string magic;
    is >> magic;
    fatalIf(!is, "model block truncated at header");
    fatalIf(magic != "perceptron",
            "malformed model block: expected 'perceptron', got '",
            magic, "'");
    unsigned tables = 0;
    unsigned bits = 0;
    std::uint64_t rows = 0;
    readCount(is, tables);
    readCount(is, bits);
    readCount(is, rows);
    fatalIf(!is, "model block truncated at dimensions");
    fatalIf(tables != spec_.tables || bits != spec_.bits,
            "perceptron dimensions tables=", tables, ",bits=", bits,
            " do not match the model spec '", toString(spec_), "'");
    const std::uint64_t capacity =
        std::uint64_t(spec_.tables) << spec_.bits;
    fatalIf(rows > capacity, "implausible perceptron row count ",
            rows, " (capacity ", capacity, ")");
    // Parse into fresh storage and commit only on success, so a
    // malformed block cannot leave behind a half-loaded model.
    std::vector<std::vector<Entry>> fresh(
        spec_.tables, std::vector<Entry>(buckets()));
    std::uint64_t lastKey = 0;
    bool haveLast = false;
    for (std::uint64_t r = 0; r < rows; ++r) {
        unsigned t = 0;
        std::uint64_t b = 0;
        readCount(is, t);
        readCount(is, b);
        fatalIf(!is, "model block truncated at perceptron row ", r);
        fatalIf(t >= spec_.tables || b >= buckets(),
                "perceptron row (", t, ", ", b,
                ") out of range for '", toString(spec_), "'");
        const std::uint64_t key = (std::uint64_t(t) << spec_.bits) | b;
        fatalIf(haveLast && key <= lastKey,
                "perceptron rows out of order at row ", r);
        lastKey = key;
        haveLast = true;
        Entry &e = fresh[t][b];
        for (unsigned a = 0; a < kNumActions; ++a) {
            is >> e.w[a];
            fatalIf(!is, "model block truncated or unparseable at "
                         "perceptron weight (row ", r, " action ", a,
                         ")");
            fatalIf(!std::isfinite(e.w[a]),
                    "non-finite perceptron weight at row ", r,
                    " action ", a);
        }
        for (unsigned a = 0; a < kNumActions; ++a) {
            readCount(is, e.visits[a]);
            fatalIf(!is, "model block truncated or unparseable at "
                         "perceptron visit count (row ", r,
                         " action ", a, ")");
            e.touched[a] = e.visits[a] > 0 || e.w[a] != 0.0;
        }
    }
    tables_ = std::move(fresh);
}

void
PerceptronModel::resetToZero()
{
    tables_.assign(spec_.tables, std::vector<Entry>(buckets()));
}

} // namespace cohmeleon::rl
