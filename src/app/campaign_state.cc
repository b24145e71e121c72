#include "app/campaign_state.hh"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <set>
#include <sstream>

#include "coh/coherence_mode.hh"
#include "sim/atomic_file.hh"
#include "sim/logging.hh"

namespace cohmeleon::app
{

namespace
{

// ---------------------------------------------------- cell results
//
// Line-oriented text with two length-prefixed raw blocks (error,
// stats) so arbitrary diagnostic bytes survive. Doubles print with
// %.17g, which std::stod inverts exactly — the round trip is what
// makes a resumed campaign's JSON byte-identical to a clean run's.

std::string
fmtDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

const char *
trainSourceName(TrainSummary::Source s)
{
    switch (s) {
      case TrainSummary::Source::kNone:
        return "none";
      case TrainSummary::Source::kOnline:
        return "online";
      case TrainSummary::Source::kSharded:
        return "sharded";
      case TrainSummary::Source::kLoaded:
        return "loaded";
      case TrainSummary::Source::kTransfer:
        return "transfer";
    }
    return "none";
}

bool
trainSourceFromName(const std::string &name, TrainSummary::Source &out)
{
    for (const TrainSummary::Source s :
         {TrainSummary::Source::kNone, TrainSummary::Source::kOnline,
          TrainSummary::Source::kSharded,
          TrainSummary::Source::kLoaded,
          TrainSummary::Source::kTransfer}) {
        if (name == trainSourceName(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

void
writeRawBlock(std::ostream &os, const char *key,
              const std::string &bytes)
{
    os << key << ' ' << bytes.size() << '\n' << bytes << '\n';
}

/** Byte cursor over a cell-result file, tracking the line number for
 *  diagnostics (raw blocks may span lines). */
struct Cursor
{
    const std::string &text;
    const std::string &ctx;
    std::size_t pos = 0;
    unsigned line = 1;

    [[noreturn]] void
    fail(const std::string &msg) const
    {
        fatal(ctx, " line ", line, ": ", msg);
    }

    bool atEnd() const { return pos >= text.size(); }

    /** Whether the next line starts with the word @p keyword. */
    bool
    peekKeyword(const std::string &keyword) const
    {
        return text.compare(pos, keyword.size(), keyword) == 0 &&
               pos + keyword.size() < text.size() &&
               text[pos + keyword.size()] == ' ';
    }

    /** Next physical line (without the newline). */
    std::string
    nextLine()
    {
        if (atEnd())
            fail("unexpected end of file");
        const std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            fail("file ends mid-line (truncated?)");
        std::string out = text.substr(pos, nl - pos);
        pos = nl + 1;
        ++line;
        return out;
    }

    /** Exactly @p n raw bytes followed by a newline. */
    std::string
    rawBlock(std::size_t n)
    {
        if (pos + n + 1 > text.size())
            fail("raw block of " + std::to_string(n) +
                 " bytes runs past the end of the file (truncated?)");
        std::string out = text.substr(pos, n);
        for (const char c : out)
            line += c == '\n';
        pos += n;
        if (text[pos] != '\n')
            fail("raw block not newline-terminated");
        ++pos;
        ++line;
        return out;
    }
};

/** One parsed line: keyword + fields, with rest-of-line capture for
 *  trailing free-text fields (names may contain anything but \n). */
struct Fields
{
    const Cursor &cur;
    std::string lineText;
    std::vector<std::string> tokens;      ///< leading fields
    std::string rest;                     ///< after the fixed fields

    [[noreturn]] void
    fail(const std::string &msg) const
    {
        fatal(cur.ctx, " line ", cur.line - 1, ": ", msg);
    }

    std::uint64_t
    u64(std::size_t i) const
    {
        const std::string &t = tokens[i];
        try {
            std::size_t used = 0;
            const std::uint64_t n = std::stoull(t, &used);
            if (used != t.size() || t.empty() || t[0] == '-')
                throw std::invalid_argument(t);
            return n;
        } catch (const std::exception &) {
            fail("malformed number '" + t + "'");
        }
    }

    double
    dbl(std::size_t i) const
    {
        const std::string &t = tokens[i];
        try {
            std::size_t used = 0;
            const double v = std::stod(t, &used);
            if (used != t.size())
                throw std::invalid_argument(t);
            return v;
        } catch (const std::exception &) {
            fail("malformed number '" + t + "'");
        }
    }
};

/** Split @p line as "<keyword> <field>*n [rest]"; dies unless the
 *  keyword matches and at least @p nFields fields are present. */
Fields
expectLine(Cursor &cur, const char *keyword, std::size_t nFields,
           bool hasRest = false)
{
    Fields f{cur, cur.nextLine(), {}, {}};
    std::size_t p = 0;
    const auto nextToken = [&]() -> std::string {
        while (p < f.lineText.size() && f.lineText[p] == ' ')
            ++p;
        const std::size_t start = p;
        while (p < f.lineText.size() && f.lineText[p] != ' ')
            ++p;
        return f.lineText.substr(start, p - start);
    };
    const std::string kw = nextToken();
    if (kw != keyword)
        f.fail("expected '" + std::string(keyword) + "', got '" + kw +
               "'");
    for (std::size_t i = 0; i < nFields; ++i) {
        std::string t = nextToken();
        if (t.empty())
            f.fail("'" + std::string(keyword) + "' needs " +
                   std::to_string(nFields) + " field(s)");
        f.tokens.push_back(std::move(t));
    }
    if (hasRest) {
        if (p < f.lineText.size() && f.lineText[p] == ' ')
            ++p;
        f.rest = f.lineText.substr(std::min(p, f.lineText.size()));
    } else if (p < f.lineText.size()) {
        f.fail("trailing garbage after '" + std::string(keyword) +
               "'");
    }
    return f;
}

void
writePhases(std::ostream &os, const std::vector<PhaseResult> &phases)
{
    os << "phases " << phases.size() << '\n';
    for (const PhaseResult &p : phases) {
        os << "phase " << p.startTime << ' ' << p.endTime << ' '
           << p.execCycles << ' ' << p.ddrAccesses << ' '
           << p.invocations.size() << ' ' << p.name << '\n';
        for (const rt::InvocationRecord &iv : p.invocations) {
            os << "invoc " << iv.acc << ' ' << coh::toString(iv.mode)
               << ' ' << iv.footprintBytes << ' ' << iv.invokeTime
               << ' ' << iv.endTime << ' ' << iv.wallCycles << ' '
               << iv.flushCycles << ' ' << iv.tlbCycles << ' '
               << iv.swOverheadCycles << ' ' << iv.accTotalCycles
               << ' ' << iv.accCommCycles << ' '
               << fmtDouble(iv.ddrApprox) << ' ' << iv.ddrExact << ' '
               << iv.ddrMonitorDelta << ' ' << iv.policyTag << ' '
               << iv.accType << '\n';
        }
    }
}

std::vector<PhaseResult>
readPhases(Cursor &cur)
{
    std::vector<PhaseResult> phases;
    const Fields f = expectLine(cur, "phases", 1);
    const std::size_t n = f.u64(0);
    phases.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Fields pf =
            expectLine(cur, "phase", 5, /*hasRest=*/true);
        PhaseResult p;
        p.startTime = pf.u64(0);
        p.endTime = pf.u64(1);
        p.execCycles = pf.u64(2);
        p.ddrAccesses = pf.u64(3);
        const std::size_t nInvocs = pf.u64(4);
        p.name = pf.rest;
        p.invocations.reserve(nInvocs);
        for (std::size_t k = 0; k < nInvocs; ++k) {
            const Fields ivf =
                expectLine(cur, "invoc", 15, /*hasRest=*/true);
            rt::InvocationRecord iv;
            iv.acc = static_cast<AccId>(ivf.u64(0));
            try {
                iv.mode = coh::modeFromString(ivf.tokens[1]);
            } catch (const FatalError &e) {
                ivf.fail(e.what());
            }
            iv.footprintBytes = ivf.u64(2);
            iv.invokeTime = ivf.u64(3);
            iv.endTime = ivf.u64(4);
            iv.wallCycles = ivf.u64(5);
            iv.flushCycles = ivf.u64(6);
            iv.tlbCycles = ivf.u64(7);
            iv.swOverheadCycles = ivf.u64(8);
            iv.accTotalCycles = ivf.u64(9);
            iv.accCommCycles = ivf.u64(10);
            iv.ddrApprox = ivf.dbl(11);
            iv.ddrExact = ivf.u64(12);
            iv.ddrMonitorDelta = ivf.u64(13);
            iv.policyTag = ivf.u64(14);
            iv.accType = ivf.rest;
            p.invocations.push_back(std::move(iv));
        }
        phases.push_back(std::move(p));
    }
    return phases;
}

} // namespace

std::string
serializeCellResult(const CellResult &r)
{
    std::ostringstream os;
    os << "cohmeleon-cell 1\n";

    const std::string spec = serializeScenario(r.scenario);
    std::size_t specLines = 0;
    for (const char c : spec)
        specLines += c == '\n';
    os << "scenario " << specLines << '\n' << spec;

    os << "app " << r.appName << '\n';
    os << "attempts " << r.attempts << '\n';
    os << "failed " << (r.failed ? 1 : 0) << '\n';
    writeRawBlock(os, "error", r.error);

    writePhases(os, r.phases);
    // Only eval-every cells carry a curve; the block is absent
    // otherwise, so their files keep the bytes they always had.
    if (!r.curvePhases.empty()) {
        os << "curve " << r.curvePhases.size() << '\n';
        for (const std::vector<PhaseResult> &point : r.curvePhases)
            writePhases(os, point);
    }

    os << "accmeans " << r.accMeans.size() << '\n';
    for (const ConcurrentAccMean &m : r.accMeans)
        os << "accmean " << fmtDouble(m.exec) << ' '
           << fmtDouble(m.ddr) << '\n';

    os << "training " << trainSourceName(r.training.source) << ' '
       << r.training.invocations << ' ' << r.training.qUpdates << ' '
       << r.training.entriesCovered << ' ' << r.training.iteration
       << '\n';
    writeRawBlock(os, "stats", r.statsDump);
    os << "end\n";
    return os.str();
}

CellResult
parseCellResult(const std::string &text, const std::string &context)
{
    Cursor cur{text, context};
    CellResult r;

    if (cur.nextLine() != "cohmeleon-cell 1")
        fatal(context, " line 1: not a cohmeleon cell-result file "
                       "(bad magic)");

    {
        const Fields f = expectLine(cur, "scenario", 1);
        const std::size_t n = f.u64(0);
        std::string spec;
        for (std::size_t i = 0; i < n; ++i)
            spec += cur.nextLine() + '\n';
        const unsigned specStart = cur.line - static_cast<unsigned>(n);
        try {
            r.scenario = parseScenarioString(spec);
        } catch (const FatalError &e) {
            fatal(context, " line ", specStart,
                  ": embedded scenario is invalid: ", e.what());
        }
    }

    r.appName = expectLine(cur, "app", 0, /*hasRest=*/true).rest;
    {
        const Fields f = expectLine(cur, "attempts", 1);
        r.attempts = static_cast<unsigned>(f.u64(0));
        if (r.attempts == 0)
            f.fail("attempts must be positive");
    }
    {
        const Fields f = expectLine(cur, "failed", 1);
        const std::uint64_t v = f.u64(0);
        if (v > 1)
            f.fail("failed must be 0 or 1");
        r.failed = v == 1;
    }
    {
        const Fields f = expectLine(cur, "error", 1);
        r.error = cur.rawBlock(f.u64(0));
    }

    r.phases = readPhases(cur);
    if (cur.peekKeyword("curve")) {
        const Fields f = expectLine(cur, "curve", 1);
        const std::size_t n = f.u64(0);
        for (std::size_t i = 0; i < n; ++i)
            r.curvePhases.push_back(readPhases(cur));
    }

    {
        const Fields f = expectLine(cur, "accmeans", 1);
        const std::size_t n = f.u64(0);
        r.accMeans.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            const Fields mf = expectLine(cur, "accmean", 2);
            r.accMeans.push_back({mf.dbl(0), mf.dbl(1)});
        }
    }

    {
        const Fields f = expectLine(cur, "training", 5);
        if (!trainSourceFromName(f.tokens[0], r.training.source))
            f.fail("unknown training source '" + f.tokens[0] + "'");
        r.training.invocations = f.u64(1);
        r.training.qUpdates = f.u64(2);
        r.training.entriesCovered = f.u64(3);
        r.training.iteration = static_cast<unsigned>(f.u64(4));
    }
    {
        const Fields f = expectLine(cur, "stats", 1);
        r.statsDump = cur.rawBlock(f.u64(0));
    }
    if (cur.nextLine() != "end")
        fatal(context, " line ", cur.line - 1,
              ": missing end marker (truncated?)");
    if (!cur.atEnd())
        fatal(context, " line ", cur.line,
              ": trailing garbage after the end marker");
    return r;
}

// ------------------------------------------------- state directory

namespace
{

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

/** 1-based number of the first line where the two texts differ. */
unsigned
firstDifferingLine(const std::string &a, const std::string &b)
{
    unsigned line = 1;
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i] != b[i])
            return line;
        line += a[i] == '\n';
    }
    return line;
}

/** One `done` line of a manifest, grammar-validated. */
struct ManifestEntryLine
{
    unsigned line = 0;
    std::size_t slot = 0;
    std::size_t size = 0;
    std::uint64_t checksum = 0;
    std::string name;
};

/** Parse a manifest: header vs the expected hash/count, every done
 *  entry's grammar, slot range, duplicates, and the end marker. Cell
 *  files themselves are the caller's problem (restore() vets them). */
std::vector<ManifestEntryLine>
parseManifestEntries(const std::string &text, const std::string &path,
                     std::uint64_t specHash, std::size_t nCells)
{
    std::istringstream is(text);
    std::string line;
    unsigned no = 0;
    const auto nextLine = [&]() {
        if (!std::getline(is, line))
            fatal(path, " line ", no + 1,
                  ": unexpected end of manifest (truncated?)");
        ++no;
        return line;
    };

    fatalIf(nextLine() != "cohmeleon-manifest 1", path,
            " line 1: not a cohmeleon campaign manifest (bad magic)");
    fatalIf(nextLine() != "spec-hash " + hex64(specHash), path,
            " line 2: spec hash mismatch (manifest does not match "
            "campaign.spec)");
    fatalIf(nextLine() != "cells " + std::to_string(nCells), path,
            " line 3: cell count mismatch (expected ", nCells,
            " unique cells)");

    std::vector<ManifestEntryLine> out;
    std::set<std::size_t> seen;
    bool sawEnd = false;
    while (!sawEnd) {
        std::istringstream ls(nextLine());
        std::string kw;
        ls >> kw;
        if (kw == "end") {
            std::string trailing;
            ls >> trailing;
            fatalIf(!trailing.empty(), path, " line ", no,
                    ": trailing garbage after end marker");
            sawEnd = true;
            break;
        }
        fatalIf(kw != "done", path, " line ", no,
                ": expected 'done' or 'end', got '", kw, "'");
        ManifestEntryLine e;
        e.line = no;
        std::string checksumHex;
        ls >> e.slot >> e.size >> checksumHex;
        std::getline(ls, e.name);
        if (!e.name.empty() && e.name.front() == ' ')
            e.name.erase(0, 1);
        fatalIf(ls.fail() || checksumHex.size() != 16, path, " line ",
                no, ": malformed done entry");
        fatalIf(e.slot >= nCells, path, " line ", no, ": cell slot ",
                e.slot, " out of range (campaign has ", nCells,
                " unique cells)");
        fatalIf(!seen.insert(e.slot).second, path, " line ", no,
                ": duplicate entry for cell slot ", e.slot);
        try {
            std::size_t used = 0;
            e.checksum = std::stoull(checksumHex, &used, 16);
            fatalIf(used != checksumHex.size(), "");
        } catch (const std::exception &) {
            fatal(path, " line ", no, ": malformed checksum '",
                  checksumHex, "'");
        }
        out.push_back(std::move(e));
    }

    std::string trailing;
    fatalIf(static_cast<bool>(std::getline(is, trailing)), path,
            " line ", no + 1,
            ": trailing content after the end marker");
    return out;
}

} // namespace

CampaignStateDir::CampaignStateDir(std::string dir)
    : dir_(std::move(dir))
{
    fatalIf(dir_.empty(), "campaign state directory path is empty");
}

std::string
CampaignStateDir::cellPath(std::size_t slot) const
{
    return dir_ + "/cells/cell" + std::to_string(slot) + ".result";
}

std::string
CampaignStateDir::manifestText() const
{
    std::ostringstream os;
    os << "cohmeleon-manifest 1\n";
    os << "spec-hash " << hex64(specHash_) << '\n';
    os << "cells " << nCells_ << '\n';
    for (const auto &[slot, e] : done_)
        os << "done " << slot << ' ' << e.size << ' '
           << hex64(e.checksum) << ' ' << e.name << '\n';
    os << "end\n";
    return os.str();
}

void
CampaignStateDir::initialize(const std::string &specText,
                             std::size_t nCells)
{
    std::error_code ec;
    std::filesystem::create_directories(dir_ + "/cells", ec);
    fatalIf(ec, "cannot create campaign state directory '", dir_,
            "': ", ec.message());
    specHash_ = fnv1a64(specText);
    nCells_ = nCells;
    done_.clear();
    atomicWriteFile(dir_ + "/campaign.spec", specText);
    atomicWriteFile(dir_ + "/MANIFEST", manifestText());
}

std::map<std::size_t, CellResult>
CampaignStateDir::restore(const std::string &specText,
                          const std::vector<std::string> &slotSpecs,
                          const std::vector<std::string> &slotNames)
{
    const std::string specPath = dir_ + "/campaign.spec";
    const std::string manifestPath = dir_ + "/MANIFEST";
    fatalIf(!std::filesystem::exists(specPath),
            "cannot resume from '", dir_,
            "': no campaign.spec (was this directory created by a "
            "--state-dir run?)");

    const std::string stored = readFile(specPath);
    if (stored != specText) {
        const unsigned line = firstDifferingLine(stored, specText);
        fatal(specPath, " line ", line,
              ": state directory belongs to a different campaign "
              "(the stored spec diverges from the one being run; "
              "use a fresh --state-dir or drop --resume)");
    }
    specHash_ = fnv1a64(specText);
    nCells_ = slotSpecs.size();
    done_.clear();

    fatalIf(!std::filesystem::exists(manifestPath),
            "cannot resume from '", dir_, "': no MANIFEST");

    std::map<std::size_t, CellResult> restored;
    for (const ManifestEntryLine &e : parseManifestEntries(
             readFile(manifestPath), manifestPath, specHash_,
             nCells_)) {
        fatalIf(e.name != slotNames[e.slot], manifestPath, " line ",
                e.line, ": cell slot ", e.slot, " is named '",
                slotNames[e.slot], "' in this campaign, not '",
                e.name, "'");

        const std::string path = cellPath(e.slot);
        fatalIf(!std::filesystem::exists(path), manifestPath,
                " line ", e.line, ": recorded cell file '", path,
                "' is missing");
        const std::string bytes = readFile(path);
        fatalIf(bytes.size() != e.size, path, ": truncated (",
                bytes.size(), " bytes, manifest recorded ", e.size,
                ")");
        fatalIf(fnv1a64(bytes) != e.checksum, path,
                ": corrupted (checksum mismatch against the "
                "manifest)");

        CellResult r = parseCellResult(bytes, path);
        // Slot keys are name-cleared (names differ, simulations may
        // not); canonicalize the embedded scenario the same way.
        ScenarioSpec key = r.scenario;
        key.name.clear();
        fatalIf(serializeScenario(key) != slotSpecs[e.slot], path,
                ": embedded scenario does not match cell slot ",
                e.slot, " of this campaign (state directory out of "
                "date?)");
        done_.emplace(e.slot, Entry{e.size, e.checksum, e.name});
        restored.emplace(e.slot, std::move(r));
    }
    return restored;
}

void
CampaignStateDir::record(std::size_t slot, const std::string &name,
                         const CellResult &result,
                         FaultInjector &injector)
{
    const std::string bytes = serializeCellResult(result);
    const std::uint64_t checksum = fnv1a64(bytes);

    const std::size_t ordinal = injector.beforeWrite();
    atomicWriteFile(cellPath(slot), bytes);
    injector.afterWrite(ordinal);

    {
        const std::lock_guard<std::mutex> lock(mutex_);
        done_[slot] = Entry{bytes.size(), checksum, name};
        atomicWriteFile(dir_ + "/MANIFEST", manifestText());
    }
    injector.afterManifest(ordinal);
}

} // namespace cohmeleon::app
