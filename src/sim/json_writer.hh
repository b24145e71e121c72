/**
 * @file
 * Machine-readable result output: a flat JSON object of numeric and
 * string metrics emitted in insertion order. The campaign runner
 * writes CAMPAIGN_<name>.json through it, so CI can diff results
 * without scraping stdout.
 *
 * The rendering is deliberately canonical — fixed key order, "%.6g"
 * numbers, no timestamps — so two runs of a deterministic experiment
 * produce byte-identical files (the property the campaign determinism
 * checks `cmp` against).
 */

#ifndef COHMELEON_SIM_JSON_WRITER_HH
#define COHMELEON_SIM_JSON_WRITER_HH

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/atomic_file.hh"
#include "sim/logging.hh"

namespace cohmeleon
{

/** Flat ordered JSON-object builder (see file comment). */
class JsonReporter
{
  public:
    explicit JsonReporter(const std::string &benchName)
    {
        addString("bench", benchName);
    }

    void
    add(const std::string &key, double value)
    {
        // JSON has no literal for NaN/Inf; emit null so the file
        // stays parseable when a metric degenerates.
        if (!std::isfinite(value)) {
            entries_.push_back({key, "null", /*quoted=*/false});
            return;
        }
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", value);
        entries_.push_back({key, buf, /*quoted=*/false});
    }

    void
    addString(const std::string &key, const std::string &value)
    {
        entries_.push_back({key, value, /*quoted=*/true});
    }

    /** Render the object to @p os. */
    void
    render(std::ostream &os) const
    {
        os << "{\n";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            os << "  \"" << escaped(e.key) << "\": ";
            if (e.quoted)
                os << '"' << escaped(e.value) << '"';
            else
                os << e.value;
            os << (i + 1 < entries_.size() ? ",\n" : "\n");
        }
        os << "}\n";
    }

    /** The rendered object (for byte-level comparisons). */
    std::string
    str() const
    {
        std::ostringstream os;
        render(os);
        return os.str();
    }

    /** Render to an explicit file path. The write is atomic (temp +
     *  fsync + rename), so a crash mid-render can never leave a
     *  truncated report where a complete one stood.
     *  @throws FatalError when the file cannot be written */
    void
    writeTo(const std::string &path) const
    {
        atomicWriteFile(path, str());
    }

  private:
    struct Entry
    {
        std::string key;
        std::string value;
        bool quoted;
    };

    static std::string
    escaped(const std::string &s)
    {
        std::string out;
        out.reserve(s.size());
        for (char c : s) {
            if (c == '"' || c == '\\') {
                out += '\\';
                out += c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
        return out;
    }

    std::vector<Entry> entries_;
};

} // namespace cohmeleon

#endif // COHMELEON_SIM_JSON_WRITER_HH
