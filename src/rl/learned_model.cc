#include "rl/learned_model.hh"

#include <array>
#include <cmath>
#include <istream>
#include <ostream>
#include <vector>

#include "rl/perceptron.hh"
#include "sim/logging.hh"
#include "sim/text_tokens.hh"

namespace cohmeleon::rl
{

namespace
{

constexpr const char *kKnownModels =
    "tabular, perceptron[:tables=T,bits=B]";

unsigned
parseModelParam(const std::string &text, const char *what)
{
    fatalIf(text.empty(), what, " needs a value");
    try {
        std::size_t used = 0;
        const unsigned long v = std::stoul(text, &used);
        fatalIf(used != text.size(), "trailing garbage in ", what,
                " '", text, "'");
        fatalIf(v > 0xffffffffu, what, " '", text, "' too large");
        return static_cast<unsigned>(v);
    } catch (const FatalError &) {
        throw;
    } catch (const std::exception &) {
        fatal("malformed ", what, " '", text, "'");
    }
}

} // namespace

// ---------------------------------------------------------- ModelSpec

void
ModelSpec::validate() const
{
    if (kind == Kind::kPerceptron) {
        fatalIf(tables < 1 || tables > kMaxTables,
                "perceptron tables must be in [1, ", kMaxTables,
                "], got ", tables);
        fatalIf(bits < kMinBits || bits > kMaxBits,
                "perceptron bits must be in [", kMinBits, ", ",
                kMaxBits, "], got ", bits);
    }
}

std::string
toString(const ModelSpec &spec)
{
    switch (spec.kind) {
      case ModelSpec::Kind::kTabular:
        return "tabular";
      case ModelSpec::Kind::kPerceptron:
        return "perceptron:tables=" + std::to_string(spec.tables) +
               ",bits=" + std::to_string(spec.bits);
    }
    panic("unreachable model kind");
}

ModelSpec
modelSpecFromString(const std::string &text)
{
    const std::size_t colon = text.find(':');
    const std::string name =
        colon == std::string::npos ? text : text.substr(0, colon);
    const bool hasParams = colon != std::string::npos;
    const std::string params =
        hasParams ? text.substr(colon + 1) : std::string();

    ModelSpec spec;
    if (name == "tabular") {
        fatalIf(hasParams, "tabular takes no parameters");
        return spec;
    }
    if (name == "perceptron") {
        spec.kind = ModelSpec::Kind::kPerceptron;
        if (hasParams) {
            fatalIf(params.empty(),
                    "perceptron parameter list is empty");
            std::string current;
            std::vector<std::string> parts;
            for (char c : params) {
                if (c == ',') {
                    parts.push_back(current);
                    current.clear();
                } else {
                    current += c;
                }
            }
            parts.push_back(current);
            for (const std::string &part : parts) {
                const std::size_t eq = part.find('=');
                fatalIf(eq == std::string::npos,
                        "perceptron parameter '", part,
                        "' must be key=value");
                const std::string key = part.substr(0, eq);
                const std::string value = part.substr(eq + 1);
                if (key == "tables") {
                    spec.tables =
                        parseModelParam(value, "perceptron tables");
                } else if (key == "bits") {
                    spec.bits =
                        parseModelParam(value, "perceptron bits");
                } else {
                    fatal("unknown perceptron parameter '", key,
                          "' (known: tables, bits)");
                }
            }
        }
        spec.validate();
        return spec;
    }
    fatal("unknown model backend '", text, "' (known: ", kKnownModels,
          ")");
}

std::ostream &
operator<<(std::ostream &os, const ModelSpec &spec)
{
    return os << toString(spec);
}

std::uint64_t
entryCapacity(const ModelSpec &spec)
{
    if (spec.kind == ModelSpec::Kind::kPerceptron)
        return static_cast<std::uint64_t>(spec.tables) *
               (std::uint64_t{1} << spec.bits) * kNumActions;
    return static_cast<std::uint64_t>(StateTuple::kNumStates) *
           kNumActions;
}

// ------------------------------------------------------ ModelFeatures

ModelFeatures
ModelFeatures::fromInputs(const StateInputs &in)
{
    ModelFeatures f;
    f.raw = in;
    f.tuple = encodeState(in);
    f.state = f.tuple.index();
    return f;
}

ModelFeatures
ModelFeatures::fromState(unsigned idx)
{
    ModelFeatures f;
    f.tuple = StateTuple::fromIndex(idx);
    f.state = idx;
    return f;
}

// ------------------------------------------------------- LearnedModel

ModelDecision
LearnedModel::decide(const ModelFeatures &f,
                     std::uint8_t availMask) const
{
    ModelDecision d;
    d.action = bestAction(f, availMask);
    d.tag = static_cast<std::uint64_t>(f.state) * kNumActions +
            d.action;
    return d;
}

// -------------------------------------------------------------- Model

Model::Model(const ModelSpec &spec)
{
    spec.validate();
    switch (spec.kind) {
      case ModelSpec::Kind::kTabular:
        impl_ = std::make_unique<TabularModel>();
        return;
      case ModelSpec::Kind::kPerceptron:
        impl_ = std::make_unique<PerceptronModel>(spec);
        return;
    }
    panic("unreachable model kind");
}

QTable &
Model::qtable()
{
    auto *tabular = dynamic_cast<TabularModel *>(impl_.get());
    fatalIf(tabular == nullptr, "the '", toString(spec()),
            "' model has no Q-table (tabular-only operation)");
    return tabular->table();
}

const QTable &
Model::qtable() const
{
    const auto *tabular =
        dynamic_cast<const TabularModel *>(impl_.get());
    fatalIf(tabular == nullptr, "the '", toString(spec()),
            "' model has no Q-table (tabular-only operation)");
    return tabular->table();
}

// ------------------------------------------------------- TabularModel

const ModelSpec TabularModel::kSpec{};

std::unique_ptr<LearnedModel>
TabularModel::clone() const
{
    return std::make_unique<TabularModel>(*this);
}

void
TabularModel::qValues(const ModelFeatures &f,
                      double (&out)[kNumActions]) const
{
    const auto &row = table_.row(f.state);
    for (unsigned a = 0; a < kNumActions; ++a)
        out[a] = row[a];
}

bool
TabularModel::tried(const ModelFeatures &f, unsigned action) const
{
    return table_.tried(f.state, action);
}

std::uint64_t
TabularModel::stateVisits(const ModelFeatures &f) const
{
    return table_.stateVisits(f.state);
}

unsigned
TabularModel::bestAction(const ModelFeatures &f,
                         std::uint8_t availMask) const
{
    return table_.bestAction(f.state, availMask);
}

void
TabularModel::update(const ModelFeatures &f, unsigned action,
                     double reward, double alpha)
{
    table_.update(f.state, action, reward, alpha);
}

void
TabularModel::merge(const LearnedModel &other, const MergeSpec &spec)
{
    const auto *o = dynamic_cast<const TabularModel *>(&other);
    fatalIf(o == nullptr, "cannot merge a '",
            toString(other.spec()),
            "' model into a tabular model");
    table_.merge(o->table_, spec);
}

void
TabularModel::save(std::ostream &os) const
{
    os.precision(17);
    os << "qtable " << StateTuple::kNumStates << ' ' << kNumActions
       << '\n';
    for (unsigned s = 0; s < StateTuple::kNumStates; ++s) {
        for (unsigned a = 0; a < kNumActions; ++a)
            os << table_.q(s, a) << ' ';
        for (unsigned a = 0; a < kNumActions; ++a)
            os << table_.visits(s, a)
               << (a + 1 < kNumActions ? ' ' : '\n');
    }
}

void
TabularModel::load(std::istream &is)
{
    std::string magic;
    is >> magic;
    fatalIf(!is, "model block truncated at header");
    fatalIf(magic != "qtable", "malformed model block: expected "
                               "'qtable', got '", magic, "'");
    unsigned states = 0;
    unsigned actions = 0;
    readCount(is, states);
    readCount(is, actions);
    fatalIf(!is, "model block truncated at dimensions");
    fatalIf(states != StateTuple::kNumStates || actions != kNumActions,
            "Q-table dimensions ", states, "x", actions,
            " do not match the ", StateTuple::kNumStates, "x",
            kNumActions, " state space");
    QTable table;
    for (unsigned s = 0; s < StateTuple::kNumStates; ++s) {
        std::array<double, kNumActions> q{};
        for (unsigned a = 0; a < kNumActions; ++a) {
            is >> q[a];
            fatalIf(!is, "model block truncated or unparseable at "
                         "Q-value (state ", s, " action ", a, ")");
            fatalIf(!std::isfinite(q[a]),
                    "non-finite Q-value at state ", s, " action ", a);
        }
        for (unsigned a = 0; a < kNumActions; ++a) {
            std::uint64_t visits = 0;
            readCount(is, visits);
            fatalIf(!is, "model block truncated or unparseable at "
                         "visit count (state ", s, " action ", a,
                         ")");
            table.setEntry(s, a, q[a], visits);
        }
    }
    table_ = std::move(table);
}

} // namespace cohmeleon::rl
