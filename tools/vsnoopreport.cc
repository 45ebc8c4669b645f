/**
 * @file
 * vsnoopreport — turn run/sweep JSON into a self-contained HTML
 * report, and gate CI on metric regressions.
 *
 * Report mode renders, per run record: headline stat tiles, the
 * 4x4 (or WxH) per-link mesh utilization heatmap from the
 * "results.links" array, transaction-latency histograms (all /
 * first-try / retried and per FilterReason), a filter-reason
 * breakdown, the critical-path latency waterfall (per-segment
 * stacked means from "results.critpath"), the requester-VM x
 * target-VM interference heatmap from "results.interference", and
 * — when the record carries a "timeseries" key — the
 * filtered-vs-broadcast request time series.  Records produced
 * with --perf additionally get a "Simulator internals" section:
 * event-queue counters and occupancy, per-table probe-length
 * histograms with rehash/cleanup counts, pool watermarks, and the
 * mesh send-backlog and XY-leg histograms from "results.perf".
 * The output is a single HTML file with inline SVG and no external
 * assets, so it can be attached as a CI artifact and opened
 * anywhere.
 *
 *   vsnoopreport --out report.html sweep.jsonl
 *
 * Trend mode charts a bench_selfperf history (one JSONL record per
 * `bench_selfperf --append-history` invocation) as per-phase
 * runs/s, events/s, and sim-cycles/s line charts across commits,
 * so a slow drift that never trips the one-shot --diff gate is
 * still visible:
 *
 *   vsnoopreport --trend BENCH_history.jsonl --out trend.html
 *
 * Diff mode compares two result sets (JSON-lines or single-object
 * files) by run identity (app, policy, relocation, ro_policy,
 * seed) and exits non-zero when any watched metric regressed by
 * more than --threshold (relative), giving CI a perf gate.  Runs
 * that carry "results.interference" on both sides are additionally
 * gated on the off-diagonal snoop-lookup share (absolute delta
 * against the same threshold), so a change that erodes inter-VM
 * isolation fails even when aggregate lookups stay flat:
 *
 *   vsnoopreport --diff BENCH_baseline.json fresh.jsonl \
 *                --threshold 0.05
 *
 * When the baseline is a bench_selfperf output (top-level
 * "selfperf" key), diff mode instead gates host throughput:
 * phases are matched by name and only a drop in runs_per_sec or
 * events_per_sec beyond the threshold regresses — model diffs are
 * two-sided because any drift is suspect, but wall-clock rates
 * only matter in one direction:
 *
 *   vsnoopreport --diff BENCH_selfperf.json fresh.json \
 *                --threshold 0.30
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/json.hh"

#include "cli.hh"

using namespace vsnoop;

const char *const vsnoop::kToolName = "vsnoopreport";

namespace
{

void
usage()
{
    std::cout <<
        "vsnoopreport — HTML reports and regression gating for\n"
        "vsnoopsim/vsnoopsweep JSON output\n"
        "\n"
        "report mode:\n"
        "  vsnoopreport [--out FILE] RESULTS.json [MORE.jsonl ...]\n"
        "    Render an HTML report (default report.html) from one or\n"
        "    more result files.  Files may be a single JSON object\n"
        "    (vsnoopsim --json) or JSON lines (vsnoopsweep).\n"
        "    Records from --perf runs get a \"Simulator internals\"\n"
        "    section (event-queue occupancy, probe-length\n"
        "    histograms, pool watermarks, mesh backlog).\n"
        "\n"
        "trend mode:\n"
        "  vsnoopreport --trend HISTORY.jsonl [--out FILE]\n"
        "    Chart a bench_selfperf --append-history file (default\n"
        "    trend.html): per-phase runs/s, events/s and\n"
        "    sim-cycles/s across records, labeled by commit.\n"
        "\n"
        "diff mode:\n"
        "  vsnoopreport --diff BASELINE CURRENT [--threshold F]\n"
        "    Match runs by (app, policy, relocation, ro_policy,\n"
        "    seed) and compare runtime, snoop lookups, traffic\n"
        "    byte-hops and mean miss latency.  Exits 1 when any\n"
        "    metric regressed by more than F (default 0.05 = 5%),\n"
        "    or when a baseline run is missing from CURRENT.\n"
        "    Records carrying results.interference on both sides\n"
        "    are also gated on the off-diagonal snoop-lookup share\n"
        "    (absolute delta vs F).\n"
        "    When BASELINE is a bench_selfperf output (top-level\n"
        "    \"selfperf\" key) the gate switches to host throughput:\n"
        "    phases are matched by name and only a *drop* in\n"
        "    runs_per_sec or events_per_sec beyond F fails (faster\n"
        "    never fails); a phase run-count mismatch always fails.\n"
        "\n"
        "  --help                this text\n";
}

/**
 * How to fix a broken --diff input, by role.  Diff runs in CI gates
 * where "cannot open" alone sends people hunting through scripts,
 * so the message says which side is broken and how to rebuild it.
 */
std::string
repairHint(const std::string &role, const std::string &path)
{
    if (role == "baseline")
        return "; regenerate it with 'vsnoopsweep --out " + path +
               " ...' (or bench_selfperf --out) from a known-good "
               "checkout, or point --diff at an existing results "
               "file";
    if (role == "current")
        return "; rerun the sweep that produces it, e.g. "
               "'vsnoopsweep --out " + path + " ...'";
    return "";
}

std::string
readFile(const std::string &path, const std::string &role)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        die("cannot open " + (role.empty() ? "" : role + " ") + "'" +
            path + "'" + repairHint(role, path));
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

/**
 * Load a result file: one JSON object per line (sweep output), or
 * a single JSON object spanning the whole file (vsnoopsim --json).
 * @p role names the file's part in a diff ("baseline", "current")
 * so errors identify the broken side; empty outside diff mode.
 */
std::vector<JsonValue>
loadRecords(const std::string &path, const std::string &role = "")
{
    std::string text = readFile(path, role);
    std::string error;
    std::string described =
        (role.empty() ? "" : role + " ") + "'" + path + "'";
    // Whole-file parse first: vsnoopsim output is one object and
    // must not be split on embedded newlines.
    if (auto whole = parseJson(text, &error)) {
        if (whole->isObject())
            return {std::move(*whole)};
        die(described + " is valid JSON but not an object" +
            repairHint(role, path));
    }
    std::vector<JsonValue> records;
    std::istringstream lines(text);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(lines, line)) {
        lineno++;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        auto rec = parseJson(line, &error);
        if (!rec || !rec->isObject())
            die(described + " line " + std::to_string(lineno) + ": " +
                (rec ? "not a JSON object" : error) +
                repairHint(role, path));
        records.push_back(std::move(*rec));
    }
    if (records.empty())
        die(described + " contains no result records" +
            repairHint(role, path));
    return records;
}

/** Run identity used to match baseline and current records. */
std::string
runKey(const JsonValue &rec)
{
    std::string key = rec.stringAt("app", "?");
    key += ' ';
    key += rec.stringAt("policy", "?");
    key += ' ';
    key += rec.stringAt("relocation", "?");
    key += ' ';
    key += rec.stringAt("ro_policy", "?");
    key += " seed=";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", rec.numberAt("seed", 0));
    key += buf;
    return key;
}

double
resultNum(const JsonValue &rec, const std::string &name)
{
    const JsonValue *results = rec.find("results");
    return results ? results->numberAt(name) : 0.0;
}

std::string
fmt(double v, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

/** Compact magnitude formatting: 12.3k, 4.5M, ... */
std::string
human(double v)
{
    double a = std::fabs(v);
    if (a >= 1e9)
        return fmt(v / 1e9, 2) + "G";
    if (a >= 1e6)
        return fmt(v / 1e6, 2) + "M";
    if (a >= 1e4)
        return fmt(v / 1e3, 1) + "k";
    if (a == std::floor(a))
        return fmt(v, 0);
    return fmt(v, 1);
}

std::string
htmlEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '&': out += "&amp;"; break;
          case '<': out += "&lt;"; break;
          case '>': out += "&gt;"; break;
          case '"': out += "&quot;"; break;
          default: out += c;
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Diff mode
// ---------------------------------------------------------------------

struct WatchedMetric
{
    const char *name;
    /** Ignore relative changes when the baseline is below this. */
    double floor;
};

/** Lower is better for all of these. */
constexpr WatchedMetric kWatched[] = {
    {"runtime", 1.0},
    {"snoop_lookups", 1.0},
    {"traffic_byte_hops", 1.0},
    {"mean_miss_latency", 1e-9},
};

/**
 * Off-diagonal snoop-lookup share from "results.interference", or a
 * negative sentinel when the record predates the interference
 * matrix (old baselines must not trip the gate).
 */
double
interferenceShare(const JsonValue &rec)
{
    const JsonValue *results = rec.find("results");
    const JsonValue *inter =
        results ? results->find("interference") : nullptr;
    if (inter == nullptr)
        return -1.0;
    return inter->numberAt("offdiag_snoop_share", -1.0);
}

// ---------------------------------------------------------------------
// Self-performance diff (BENCH_selfperf.json schema)
// ---------------------------------------------------------------------

/**
 * True when a record is a bench_selfperf output: a single object
 * with a top-level "selfperf" key.  Model-result records (run JSON,
 * sweep lines, BENCH_baseline.json) never carry that key.
 */
bool
isSelfperf(const std::vector<JsonValue> &records)
{
    return records.size() == 1 && records[0].find("selfperf") != nullptr;
}

/** Higher is better for all of these (one-sided gate on drops). */
constexpr const char *kSelfperfRates[] = {
    "runs_per_sec",
    "events_per_sec",
};

/**
 * Compare two bench_selfperf records phase-by-phase.  Throughput is
 * host wall-clock, so the gate is one-sided: only a *drop* in
 * runs/sec or events/sec beyond the threshold regresses — a faster
 * current build never fails, and absolute counts (runs, sim cycles)
 * are checked for equality instead, because the matrix is fixed and
 * a count change means the two files measured different work.
 */
int
runSelfperfDiff(const JsonValue &base, const JsonValue &cur,
                double threshold)
{
    const JsonValue *bphases = base.find("selfperf")->find("phases");
    const JsonValue *csp = cur.find("selfperf");
    const JsonValue *cphases = csp ? csp->find("phases") : nullptr;
    if (bphases == nullptr || !bphases->isArray())
        die("baseline selfperf record has no phases array");
    if (cphases == nullptr || !cphases->isArray())
        die("current file is not a bench_selfperf record "
            "(no selfperf.phases)");

    std::map<std::string, const JsonValue *> current_by_name;
    for (const JsonValue &p : cphases->items())
        current_by_name[p.stringAt("phase", "?")] = &p;

    int regressions = 0;
    int improvements = 0;
    for (const JsonValue &bp : bphases->items()) {
        std::string name = bp.stringAt("phase", "?");
        auto it = current_by_name.find(name);
        if (it == current_by_name.end()) {
            std::cout << "MISSING    phase " << name
                      << " (in baseline, not in current)\n";
            regressions++;
            continue;
        }
        const JsonValue &cp = *it->second;
        // Fixed-matrix sanity: a run-count mismatch means the two
        // sides measured different work and rates are meaningless.
        double bruns = bp.numberAt("runs", 0);
        double cruns = cp.numberAt("runs", 0);
        if (bruns != cruns) {
            std::cout << "REGRESSION phase " << name << " runs: "
                      << human(bruns) << " -> " << human(cruns)
                      << " (matrix changed; rates not comparable)\n";
            regressions++;
            continue;
        }
        for (const char *metric : kSelfperfRates) {
            double b = bp.numberAt(metric, 0);
            double c = cp.numberAt(metric, 0);
            if (b <= 0.0)
                continue;
            double rel = (c - b) / b;
            if (rel < -threshold) {
                std::cout << "REGRESSION phase " << name << " "
                          << metric << ": " << human(b) << " -> "
                          << human(c) << " (" << fmt(100.0 * rel, 1)
                          << "%)\n";
                regressions++;
            } else if (rel > threshold) {
                std::cout << "improved   phase " << name << " "
                          << metric << ": " << human(b) << " -> "
                          << human(c) << " (+" << fmt(100.0 * rel, 1)
                          << "%)\n";
                improvements++;
            }
        }
    }
    std::cout << "vsnoopreport: selfperf diff, "
              << regressions << " regression(s), " << improvements
              << " improvement(s) at threshold "
              << fmt(100.0 * threshold, 1) << "%\n";
    return regressions > 0 ? 1 : 0;
}

int
runDiff(const std::string &baseline_path, const std::string &current_path,
        double threshold)
{
    std::vector<JsonValue> baseline =
        loadRecords(baseline_path, "baseline");
    std::vector<JsonValue> current =
        loadRecords(current_path, "current");
    // bench_selfperf output gates host throughput, not model
    // results; it gets its own phase-keyed, one-sided comparison.
    if (isSelfperf(baseline)) {
        if (!isSelfperf(current))
            die("baseline is a bench_selfperf record but '" +
                current_path + "' is not");
        return runSelfperfDiff(baseline[0], current[0], threshold);
    }
    std::map<std::string, const JsonValue *> current_by_key;
    for (const JsonValue &rec : current)
        current_by_key[runKey(rec)] = &rec;

    int regressions = 0;
    int improvements = 0;
    for (const JsonValue &base : baseline) {
        std::string key = runKey(base);
        auto it = current_by_key.find(key);
        if (it == current_by_key.end()) {
            std::cout << "MISSING    " << key
                      << " (in baseline, not in current)\n";
            regressions++;
            continue;
        }
        for (const WatchedMetric &metric : kWatched) {
            double b = resultNum(base, metric.name);
            double c = resultNum(*it->second, metric.name);
            if (b < metric.floor) {
                if (c >= metric.floor && c > b)
                    std::cout << "REGRESSION " << key << " "
                              << metric.name << ": " << human(b)
                              << " -> " << human(c) << "\n";
                if (c >= metric.floor && c > b)
                    regressions++;
                continue;
            }
            double rel = (c - b) / b;
            if (rel > threshold) {
                std::cout << "REGRESSION " << key << " " << metric.name
                          << ": " << human(b) << " -> " << human(c)
                          << " (+" << fmt(100.0 * rel, 1) << "%)\n";
                regressions++;
            } else if (rel < -threshold) {
                std::cout << "improved   " << key << " " << metric.name
                          << ": " << human(b) << " -> " << human(c)
                          << " (" << fmt(100.0 * rel, 1) << "%)\n";
                improvements++;
            }
        }
        // Inter-VM isolation gate: the off-diagonal snoop-lookup
        // share is already a ratio in [0, 1], so it is compared by
        // absolute delta (a relative test would explode near the
        // well-filtered zero end).  Skipped when either side lacks
        // the matrix, so pre-interference baselines keep passing.
        double ib = interferenceShare(base);
        double ic = interferenceShare(*it->second);
        if (ib >= 0.0 && ic >= 0.0) {
            double delta = ic - ib;
            if (delta > threshold) {
                std::cout << "REGRESSION " << key
                          << " offdiag_snoop_share: " << fmt(ib, 4)
                          << " -> " << fmt(ic, 4) << " (+"
                          << fmt(delta, 4) << ")\n";
                regressions++;
            } else if (delta < -threshold) {
                std::cout << "improved   " << key
                          << " offdiag_snoop_share: " << fmt(ib, 4)
                          << " -> " << fmt(ic, 4) << " ("
                          << fmt(delta, 4) << ")\n";
                improvements++;
            }
        }
    }
    std::cout << "vsnoopreport: " << baseline.size() << " baseline run(s), "
              << regressions << " regression(s), " << improvements
              << " improvement(s) at threshold "
              << fmt(100.0 * threshold, 1) << "%\n";
    return regressions > 0 ? 1 : 0;
}

// ---------------------------------------------------------------------
// Report mode
// ---------------------------------------------------------------------

/**
 * Sequential blue ramp (light -> dark), used for link-utilization
 * magnitude.  Step 100 reads as "near zero" and recedes toward the
 * surface; step 700 is the hottest link.
 */
constexpr const char *kRamp[] = {
    "#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7",
    "#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281",
    "#0d366b",
};
constexpr std::size_t kRampSteps = sizeof(kRamp) / sizeof(kRamp[0]);

const char *
rampColor(double t)
{
    t = std::clamp(t, 0.0, 1.0);
    auto idx = static_cast<std::size_t>(
        std::lround(t * static_cast<double>(kRampSteps - 1)));
    return kRamp[idx];
}

struct LinkRec
{
    unsigned from = 0;
    unsigned to = 0;
    double value = 0.0;
    double busy = 0.0;
    double wait = 0.0;
};

/**
 * Extract per-link values from "results.links".  @p cls selects
 * one message class ("request", ...) or, when empty, the sum over
 * all classes.
 */
std::vector<LinkRec>
extractLinks(const JsonValue &rec, const std::string &cls)
{
    std::vector<LinkRec> out;
    const JsonValue *results = rec.find("results");
    const JsonValue *links = results ? results->find("links") : nullptr;
    if (links == nullptr || !links->isArray())
        return out;
    for (const JsonValue &link : links->items()) {
        LinkRec lr;
        lr.from = static_cast<unsigned>(link.numberAt("from"));
        lr.to = static_cast<unsigned>(link.numberAt("to"));
        lr.busy = link.numberAt("busy_cycles");
        lr.wait = link.numberAt("wait_cycles");
        if (const JsonValue *bh = link.find("byte_hops")) {
            if (cls.empty()) {
                for (const auto &member : bh->members())
                    if (member.second.isNumber())
                        lr.value += member.second.number();
            } else {
                lr.value = bh->numberAt(cls);
            }
        }
        out.push_back(lr);
    }
    return out;
}

/**
 * One WxH mesh heatmap as inline SVG.  Physical directed links are
 * thick strokes colored by the sequential ramp; node squares carry
 * the node id, with loopback traffic in the hover tooltip.
 */
std::string
heatmapSvg(const std::vector<LinkRec> &links, unsigned width,
           unsigned height, const std::string &title)
{
    constexpr int kCell = 86;
    constexpr int kPad = 26;
    constexpr int kNode = 34;
    constexpr int kLegendH = 40;
    int w = kPad * 2 + kCell * static_cast<int>(width - 1) + kNode;
    int h = kPad * 2 + kCell * static_cast<int>(height - 1) + kNode +
            kLegendH;

    double max_v = 0.0;
    for (const LinkRec &l : links)
        if (l.from != l.to)
            max_v = std::max(max_v, l.value);

    auto cx = [&](unsigned n) {
        return kPad + kNode / 2 + kCell * static_cast<int>(n % width);
    };
    auto cy = [&](unsigned n) {
        return kPad + kNode / 2 + kCell * static_cast<int>(n / width);
    };

    std::ostringstream svg;
    svg << "<svg class=\"heatmap\" width=\"" << w << "\" height=\"" << h
        << "\" viewBox=\"0 0 " << w << " " << h
        << "\" role=\"img\" aria-label=\"" << htmlEscape(title)
        << "\">\n";
    svg << "<text x=\"" << kPad << "\" y=\"14\" class=\"charttitle\">"
        << htmlEscape(title) << "</text>\n";

    // Links first (under the node squares).
    for (const LinkRec &l : links) {
        if (l.from == l.to)
            continue;
        int x1 = cx(l.from), y1 = cy(l.from);
        int x2 = cx(l.to), y2 = cy(l.to);
        // Parallel directed lanes: each direction of a physical
        // channel is offset to its own side so both stay visible.
        int ox = 0, oy = 0;
        if (x2 > x1)
            oy = -5;
        else if (x2 < x1)
            oy = 5;
        else if (y2 > y1)
            ox = 5;
        else
            ox = -5;
        // Trim to the node edges plus a 2px surface gap.
        int trim = kNode / 2 + 2;
        int dx = (x2 > x1) - (x2 < x1);
        int dy = (y2 > y1) - (y2 < y1);
        const char *color = (max_v > 0.0 && l.value > 0.0)
                                ? rampColor(l.value / max_v)
                                : "var(--grid)";
        svg << "<line x1=\"" << x1 + dx * trim + ox << "\" y1=\""
            << y1 + dy * trim + oy << "\" x2=\"" << x2 - dx * trim + ox
            << "\" y2=\"" << y2 - dy * trim + oy
            << "\" stroke=\"" << color
            << "\" stroke-width=\"7\"><title>" << l.from << " &#8594; "
            << l.to << ": " << human(l.value) << " byte-hops, busy "
            << human(l.busy) << " cy, waited " << human(l.wait)
            << " cy</title></line>\n";
    }

    // Node squares (loopback traffic in the tooltip).
    for (const LinkRec &l : links) {
        if (l.from != l.to)
            continue;
        int x = cx(l.from) - kNode / 2;
        int y = cy(l.from) - kNode / 2;
        svg << "<rect x=\"" << x << "\" y=\"" << y << "\" width=\""
            << kNode << "\" height=\"" << kNode
            << "\" rx=\"4\" class=\"node\"><title>node " << l.from
            << " local delivery: " << human(l.value)
            << " byte-hops</title></rect>\n";
        svg << "<text x=\"" << cx(l.from) << "\" y=\"" << cy(l.from) + 4
            << "\" text-anchor=\"middle\">" << l.from << "</text>\n";
    }

    // Legend: the ramp with min/max annotations.
    int ly = h - kLegendH + 14;
    int lw = 13;
    for (std::size_t i = 0; i < kRampSteps; ++i) {
        svg << "<rect x=\"" << kPad + static_cast<int>(i) * lw
            << "\" y=\"" << ly << "\" width=\"" << lw
            << "\" height=\"10\" fill=\"" << kRamp[i] << "\"/>\n";
    }
    svg << "<text x=\"" << kPad << "\" y=\"" << ly + 24 << "\">0</text>\n";
    svg << "<text x=\"" << kPad + static_cast<int>(kRampSteps) * lw
        << "\" y=\"" << ly + 24 << "\" text-anchor=\"end\">"
        << human(max_v) << "</text>\n";
    svg << "</svg>\n";
    return svg.str();
}

/** Upper edge label for log2 bucket i (0, 1, 3, 7, ...). */
std::string
bucketLabel(std::size_t i)
{
    if (i == 0)
        return "0";
    return human(std::pow(2.0, static_cast<double>(i)) - 1);
}

/**
 * One latency histogram as an SVG bar chart over its populated
 * log2 buckets, with the summary line underneath the title.
 * @p unit names the bucketed quantity and @p noun the counted
 * samples, so the perf histograms (probes per lookup, entries per
 * sample) read correctly in tooltips.
 */
std::string
histogramSvg(const JsonValue &hist, const std::string &title,
             const std::string &unit = "ticks",
             const std::string &noun = "transactions")
{
    std::vector<double> buckets;
    if (const JsonValue *arr = hist.find("buckets")) {
        if (arr->isArray())
            for (const JsonValue &b : arr->items())
                buckets.push_back(b.isNumber() ? b.number() : 0.0);
    }
    double count = hist.numberAt("count");

    std::size_t first = buckets.size(), last = 0;
    double max_b = 0.0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        if (buckets[i] > 0.0) {
            first = std::min(first, i);
            last = std::max(last, i);
            max_b = std::max(max_b, buckets[i]);
        }
    }

    constexpr int kW = 300, kH = 150, kPlotH = 84, kTop = 44;
    std::ostringstream svg;
    svg << "<svg class=\"hist\" width=\"" << kW << "\" height=\"" << kH
        << "\" viewBox=\"0 0 " << kW << " " << kH
        << "\" role=\"img\" aria-label=\"" << htmlEscape(title)
        << "\">\n";
    svg << "<text x=\"0\" y=\"12\" class=\"charttitle\">"
        << htmlEscape(title) << "</text>\n";
    svg << "<text x=\"0\" y=\"28\">n=" << human(count) << "  p50 "
        << human(hist.numberAt("p50")) << "  p90 "
        << human(hist.numberAt("p90")) << "  p99 "
        << human(hist.numberAt("p99")) << "</text>\n";
    if (count <= 0.0 || first > last) {
        svg << "<text x=\"0\" y=\"" << kTop + 40
            << "\" class=\"mutedtext\">no samples</text>\n";
        svg << "</svg>\n";
        return svg.str();
    }

    std::size_t n = last - first + 1;
    double bar_w =
        static_cast<double>(kW) / static_cast<double>(n);
    int baseline = kTop + kPlotH;
    svg << "<line x1=\"0\" y1=\"" << baseline << "\" x2=\"" << kW
        << "\" y2=\"" << baseline << "\" class=\"axisline\"/>\n";
    for (std::size_t i = first; i <= last; ++i) {
        double v = buckets[i];
        int bh = v > 0.0
                     ? std::max(2, static_cast<int>(
                                      std::lround(v / max_b * kPlotH)))
                     : 0;
        double x = static_cast<double>(i - first) * bar_w;
        if (bh > 0) {
            svg << "<rect x=\"" << fmt(x + 1, 1) << "\" y=\""
                << baseline - bh << "\" width=\"" << fmt(bar_w - 2, 1)
                << "\" height=\"" << bh
                << "\" rx=\"2\" class=\"bar\"><title>["
                << (i == 0 ? "0" : human(std::pow(
                                       2.0, static_cast<double>(i - 1))))
                << " .. " << bucketLabel(i) << "] " << htmlEscape(unit)
                << ": " << human(v) << " " << htmlEscape(noun)
                << "</title></rect>\n";
        }
        // Sparse tick labels: first, last, and every fourth bucket.
        if (i == first || i == last ||
            (i - first) % 4 == 0) {
            svg << "<text x=\"" << fmt(x + bar_w / 2, 1) << "\" y=\""
                << baseline + 14 << "\" text-anchor=\"middle\">"
                << bucketLabel(i) << "</text>\n";
        }
    }
    svg << "</svg>\n";
    return svg.str();
}

/**
 * Filter-reason breakdown as labeled horizontal bars (one measure,
 * so every bar wears series-1; identity is carried by the labels).
 */
std::string
reasonBarsSvg(const JsonValue &by_reason)
{
    struct Row
    {
        std::string name;
        double count = 0.0;
    };
    std::vector<Row> rows;
    double max_c = 0.0, total = 0.0;
    for (const auto &member : by_reason.members()) {
        double c = member.second.numberAt("count");
        rows.push_back({member.first, c});
        max_c = std::max(max_c, c);
        total += c;
    }
    constexpr int kW = 420, kRowH = 24, kLabelW = 130, kValueW = 96;
    int h = 20 + kRowH * static_cast<int>(rows.size());
    std::ostringstream svg;
    svg << "<svg class=\"reasons\" width=\"" << kW << "\" height=\"" << h
        << "\" viewBox=\"0 0 " << kW << " " << h
        << "\" role=\"img\" aria-label=\"transactions by filter "
           "reason\">\n";
    svg << "<text x=\"0\" y=\"12\" class=\"charttitle\">transactions "
           "by filter reason</text>\n";
    int y = 20;
    int plot_w = kW - kLabelW - kValueW;
    for (const Row &row : rows) {
        int bw = (max_c > 0.0 && row.count > 0.0)
                     ? std::max(2, static_cast<int>(std::lround(
                                       row.count / max_c * plot_w)))
                     : 0;
        svg << "<text x=\"" << kLabelW - 6 << "\" y=\"" << y + 15
            << "\" text-anchor=\"end\">" << htmlEscape(row.name)
            << "</text>\n";
        if (bw > 0) {
            svg << "<rect x=\"" << kLabelW << "\" y=\"" << y + 5
                << "\" width=\"" << bw
                << "\" height=\"12\" rx=\"2\" class=\"bar\"><title>"
                << htmlEscape(row.name) << ": " << human(row.count)
                << " transactions ("
                << fmt(total > 0.0 ? 100.0 * row.count / total : 0.0, 1)
                << "%)</title></rect>\n";
        }
        svg << "<text x=\"" << kLabelW + bw + 6 << "\" y=\"" << y + 15
            << "\">" << human(row.count) << "</text>\n";
        y += kRowH;
    }
    svg << "</svg>\n";
    return svg.str();
}

/**
 * The filtered-vs-broadcast request time series (two series, so a
 * legend is present and each line carries a categorical slot).
 */
std::string
timeseriesSvg(const JsonValue &series)
{
    const JsonValue *samples = series.find("samples");
    if (samples == nullptr || !samples->isArray() ||
        samples->items().empty())
        return "";
    std::vector<double> ticks, filtered, broadcast, lookups;
    for (const JsonValue &s : samples->items()) {
        ticks.push_back(s.numberAt("tick"));
        filtered.push_back(s.numberAt("filtered_requests"));
        broadcast.push_back(s.numberAt("broadcast_requests"));
        lookups.push_back(s.numberAt("snoop_lookups"));
    }
    bool have_split = false;
    for (std::size_t i = 0; i < ticks.size(); ++i)
        have_split = have_split || filtered[i] > 0 || broadcast[i] > 0;
    // TokenB runs have no filtered/broadcast split; chart the
    // snoop-lookup rate as a single series instead (one series, so
    // the title names it and no legend box is needed).
    const std::vector<double> &a = have_split ? filtered : lookups;
    const std::vector<double> &b = broadcast;

    constexpr int kW = 560, kH = 180, kTop = 40, kPlotH = 110;
    double max_v = 0.0;
    for (double v : a)
        max_v = std::max(max_v, v);
    if (have_split)
        for (double v : b)
            max_v = std::max(max_v, v);
    if (max_v <= 0.0)
        max_v = 1.0;
    double min_t = ticks.front(), max_t = ticks.back();
    double span_t = std::max(1.0, max_t - min_t);

    auto px = [&](double t) {
        return 10.0 + (t - min_t) / span_t * (kW - 20);
    };
    auto py = [&](double v) {
        return kTop + kPlotH - v / max_v * kPlotH;
    };
    auto polyline = [&](const std::vector<double> &ys,
                        const char *cls) {
        std::ostringstream pts;
        for (std::size_t i = 0; i < ticks.size(); ++i)
            pts << fmt(px(ticks[i]), 1) << "," << fmt(py(ys[i]), 1)
                << " ";
        return "<polyline points=\"" + pts.str() +
               "\" class=\"" + cls + "\"/>\n";
    };

    std::ostringstream svg;
    svg << "<svg class=\"timeseries\" width=\"" << kW << "\" height=\""
        << kH << "\" viewBox=\"0 0 " << kW << " " << kH
        << "\" role=\"img\" aria-label=\"request time series\">\n";
    svg << "<text x=\"10\" y=\"12\" class=\"charttitle\">"
        << (have_split ? "requests per interval"
                       : "snoop lookups per interval")
        << "</text>\n";
    if (have_split) {
        // Legend (two series on one plot).
        svg << "<rect x=\"200\" y=\"4\" width=\"10\" height=\"10\" "
               "rx=\"2\" class=\"swatch1\"/>"
               "<text x=\"214\" y=\"13\">VM-multicast (filtered)"
               "</text>\n";
        svg << "<rect x=\"360\" y=\"4\" width=\"10\" height=\"10\" "
               "rx=\"2\" class=\"swatch2\"/>"
               "<text x=\"374\" y=\"13\">broadcast</text>\n";
    }
    for (int g = 0; g <= 2; ++g) {
        int gy = kTop + kPlotH * g / 2;
        svg << "<line x1=\"10\" y1=\"" << gy << "\" x2=\"" << kW - 10
            << "\" y2=\"" << gy << "\" class=\"gridline\"/>\n";
    }
    svg << "<text x=\"10\" y=\"" << kTop - 4 << "\">" << human(max_v)
        << "</text>\n";
    svg << "<text x=\"10\" y=\"" << kTop + kPlotH + 14
        << "\">tick " << human(min_t) << "</text>\n";
    svg << "<text x=\"" << kW - 10 << "\" y=\"" << kTop + kPlotH + 14
        << "\" text-anchor=\"end\">" << human(max_t) << "</text>\n";
    svg << polyline(a, "line1");
    if (have_split)
        svg << polyline(b, "line2");
    // Hover targets on the samples of the first series.
    for (std::size_t i = 0; i < ticks.size(); ++i) {
        svg << "<circle cx=\"" << fmt(px(ticks[i]), 1) << "\" cy=\""
            << fmt(py(a[i]), 1) << "\" r=\"6\" class=\"hit\"><title>"
            << "tick " << human(ticks[i]) << ": " << human(a[i])
            << (have_split ? " filtered, " : " lookups")
            << (have_split ? human(b[i]) + " broadcast" : std::string())
            << "</title></circle>\n";
    }
    svg << "</svg>\n";
    return svg.str();
}

/**
 * Categorical palette for the seven critical-path segments, indexed
 * in the order the "segments" object emits them (mshr_wait,
 * req_traversal, snoop_lookup, token_collect, retry_backoff,
 * persistent_escalation, data_return).
 */
constexpr const char *kSegColors[] = {
    "#8d8b84", "#2a78d6", "#eb6834", "#c9a227", "#c94f7c", "#8d6cc9",
    "#4fa05f",
};
constexpr std::size_t kNumSegColors =
    sizeof(kSegColors) / sizeof(kSegColors[0]);

/**
 * Critical-path waterfall: one stacked horizontal bar per group
 * ("all", then each populated FilterReason), segments scaled as
 * mean ticks per transaction so rows with very different counts
 * stay comparable.  Built from "results.critpath".
 */
std::string
waterfallSvg(const JsonValue &critpath)
{
    const JsonValue *segments = critpath.find("segments");
    if (segments == nullptr || !segments->isObject() ||
        segments->members().empty())
        return "";

    std::vector<std::string> seg_names;
    for (const auto &member : segments->members())
        seg_names.push_back(member.first);

    struct Row
    {
        std::string label;
        double count = 0.0;
        std::vector<double> sums;
    };
    std::vector<Row> rows;

    Row all;
    all.label = "all";
    for (const auto &member : segments->members()) {
        all.count = std::max(all.count, member.second.numberAt("count"));
        all.sums.push_back(member.second.numberAt("sum"));
    }
    if (all.count > 0.0)
        rows.push_back(std::move(all));
    if (const JsonValue *by_reason = critpath.find("by_reason")) {
        for (const auto &member : by_reason->members()) {
            double count = member.second.numberAt("count");
            if (count <= 0.0)
                continue;
            Row row;
            row.label = member.first;
            row.count = count;
            const JsonValue *sums = member.second.find("seg_sums");
            for (const std::string &name : seg_names)
                row.sums.push_back(sums ? sums->numberAt(name) : 0.0);
            rows.push_back(std::move(row));
        }
    }
    if (rows.empty())
        return "";

    double max_mean = 0.0;
    for (const Row &row : rows) {
        double total = 0.0;
        for (double s : row.sums)
            total += s;
        max_mean = std::max(max_mean, total / row.count);
    }
    if (max_mean <= 0.0)
        max_mean = 1.0;

    constexpr int kW = 640, kRowH = 26, kLabelW = 150, kValueW = 70;
    // Legend: segments four to a line above the bars.
    int legend_lines =
        static_cast<int>((seg_names.size() + 3) / 4);
    int bars_top = 22 + 16 * legend_lines + 6;
    int h = bars_top + kRowH * static_cast<int>(rows.size()) + 6;
    int plot_w = kW - kLabelW - kValueW;

    std::ostringstream svg;
    svg << "<svg class=\"waterfall\" width=\"" << kW << "\" height=\""
        << h << "\" viewBox=\"0 0 " << kW << " " << h
        << "\" role=\"img\" aria-label=\"critical-path latency "
           "waterfall\">\n";
    svg << "<text x=\"0\" y=\"12\" class=\"charttitle\">critical-path "
           "waterfall (mean ticks / transaction)</text>\n";
    for (std::size_t s = 0; s < seg_names.size(); ++s) {
        int lx = 10 + static_cast<int>(s % 4) * 156;
        int ly = 22 + static_cast<int>(s / 4) * 16;
        svg << "<rect x=\"" << lx << "\" y=\"" << ly
            << "\" width=\"10\" height=\"10\" rx=\"2\" fill=\""
            << kSegColors[s % kNumSegColors] << "\"/>"
            << "<text x=\"" << lx + 14 << "\" y=\"" << ly + 9 << "\">"
            << htmlEscape(seg_names[s]) << "</text>\n";
    }
    int y = bars_top;
    for (const Row &row : rows) {
        double total = 0.0;
        for (double s : row.sums)
            total += s;
        double mean = total / row.count;
        svg << "<text x=\"" << kLabelW - 6 << "\" y=\"" << y + 15
            << "\" text-anchor=\"end\">" << htmlEscape(row.label)
            << "</text>\n";
        double x = kLabelW;
        for (std::size_t s = 0; s < row.sums.size(); ++s) {
            double seg_mean = row.sums[s] / row.count;
            double w = seg_mean / max_mean * plot_w;
            if (w <= 0.0)
                continue;
            svg << "<rect x=\"" << fmt(x, 1) << "\" y=\"" << y + 4
                << "\" width=\"" << fmt(std::max(w, 1.0), 1)
                << "\" height=\"14\" fill=\""
                << kSegColors[s % kNumSegColors] << "\"><title>"
                << htmlEscape(row.label) << " "
                << htmlEscape(seg_names[s]) << ": "
                << fmt(seg_mean, 1) << " ticks/txn ("
                << fmt(mean > 0.0 ? 100.0 * seg_mean / mean : 0.0, 1)
                << "% of " << fmt(mean, 1) << ")</title></rect>\n";
            x += w;
        }
        svg << "<text x=\"" << fmt(x + 6, 1) << "\" y=\"" << y + 15
            << "\">" << fmt(mean, 1) << "</text>\n";
        y += kRowH;
    }
    svg << "</svg>\n";
    return svg.str();
}

/**
 * Requester-VM x target-VM interference heatmap over the
 * snoop-lookup matrix from "results.interference".  Rows are the
 * requesting VM, columns the VM whose cache tags were occupied;
 * the off-diagonal share (the isolation figure of merit) is
 * printed under the grid.
 */
std::string
interferenceSvg(const JsonValue &interference)
{
    const JsonValue *labels_arr = interference.find("rows");
    const JsonValue *matrix = interference.find("snoop_lookups");
    if (labels_arr == nullptr || !labels_arr->isArray() ||
        matrix == nullptr || !matrix->isArray())
        return "";
    std::vector<std::string> labels;
    for (const JsonValue &l : labels_arr->items())
        labels.push_back(l.isString() ? l.string() : "?");
    std::size_t dim = labels.size();
    if (dim == 0 || matrix->items().size() != dim)
        return "";

    std::vector<std::vector<double>> cells(dim);
    double max_v = 0.0, total = 0.0;
    for (std::size_t r = 0; r < dim; ++r) {
        const JsonValue &row = matrix->items()[r];
        if (!row.isArray() || row.items().size() != dim)
            return "";
        for (const JsonValue &cell : row.items()) {
            double v = cell.isNumber() ? cell.number() : 0.0;
            cells[r].push_back(v);
            max_v = std::max(max_v, v);
            total += v;
        }
    }

    constexpr int kCell = 46, kPadL = 64, kPadT = 56;
    int w = kPadL + kCell * static_cast<int>(dim) + 10;
    int h = kPadT + kCell * static_cast<int>(dim) + 38;
    std::ostringstream svg;
    svg << "<svg class=\"interheat\" width=\"" << w << "\" height=\""
        << h << "\" viewBox=\"0 0 " << w << " " << h
        << "\" role=\"img\" aria-label=\"inter-VM snoop-lookup "
           "interference\">\n";
    svg << "<text x=\"0\" y=\"12\" class=\"charttitle\">inter-VM "
           "interference (snoop lookups)</text>\n";
    svg << "<text x=\"0\" y=\"28\">row: requester, column: looked-up "
           "VM</text>\n";
    for (std::size_t c = 0; c < dim; ++c) {
        svg << "<text x=\"" << kPadL + static_cast<int>(c) * kCell +
                                  kCell / 2
            << "\" y=\"" << kPadT - 6 << "\" text-anchor=\"middle\">"
            << htmlEscape(labels[c]) << "</text>\n";
    }
    for (std::size_t r = 0; r < dim; ++r) {
        int y = kPadT + static_cast<int>(r) * kCell;
        svg << "<text x=\"" << kPadL - 6 << "\" y=\"" << y + kCell / 2 + 4
            << "\" text-anchor=\"end\">" << htmlEscape(labels[r])
            << "</text>\n";
        for (std::size_t c = 0; c < dim; ++c) {
            int x = kPadL + static_cast<int>(c) * kCell;
            double v = cells[r][c];
            const char *color = (max_v > 0.0 && v > 0.0)
                                    ? rampColor(v / max_v)
                                    : "var(--grid)";
            svg << "<rect x=\"" << x + 1 << "\" y=\"" << y + 1
                << "\" width=\"" << kCell - 2 << "\" height=\""
                << kCell - 2 << "\" rx=\"3\" fill=\"" << color
                << "\"><title>" << htmlEscape(labels[r]) << " &#8594; "
                << htmlEscape(labels[c]) << ": " << human(v)
                << " lookups ("
                << fmt(total > 0.0 ? 100.0 * v / total : 0.0, 1)
                << "%)</title></rect>\n";
            // In-cell value; dark cells flip to light text.
            svg << "<text x=\"" << x + kCell / 2 << "\" y=\""
                << y + kCell / 2 + 4 << "\" text-anchor=\"middle\""
                << (max_v > 0.0 && v / max_v > 0.55
                        ? " style=\"fill:#f5f5f3\""
                        : "")
                << ">" << human(v) << "</text>\n";
        }
    }
    svg << "<text x=\"0\" y=\"" << h - 10
        << "\">off-diagonal share of lookups: "
        << fmt(interference.numberAt("offdiag_snoop_share"), 4)
        << "</text>\n";
    svg << "</svg>\n";
    return svg.str();
}

std::string
statTile(const std::string &label, const std::string &value)
{
    return "<div class=\"tile\"><div class=\"v\">" + htmlEscape(value) +
           "</div><div class=\"l\">" + htmlEscape(label) +
           "</div></div>\n";
}

/**
 * Simulator-internals section from "results.perf" (--perf runs):
 * event-queue counters and sampled occupancy, per-table
 * probe-length histograms with rehash/cleanup/load summaries, pool
 * watermarks, and mesh backlog / XY-leg histograms.  Runs without
 * --perf lack the key entirely and skip the section.
 */
void
renderPerfSection(std::ostream &os, const JsonValue &perf)
{
    os << "<h2>Simulator internals (--perf)</h2>\n";
    if (const JsonValue *eq = perf.find("event_queue")) {
        os << "<div class=\"tiles\">\n";
        os << statTile("events scheduled",
                       human(eq->numberAt("schedules")));
        os << statTile("descheduled",
                       human(eq->numberAt("deschedules")));
        os << statTile("overflow-heap inserts",
                       human(eq->numberAt("overflow_inserts")));
        os << statTile("max wheel entries",
                       human(eq->numberAt("max_wheel_entries")));
        os << statTile("max same-tick depth",
                       human(eq->numberAt("max_bucket_depth")));
        os << statTile("event-pool high water",
                       human(eq->numberAt("pool_high_water")));
        os << statTile("pool refills",
                       human(eq->numberAt("pool_refills")));
        os << "</div>\n";
        os << "<div class=\"charts\">\n";
        if (const JsonValue *wo = eq->find("wheel_occupancy"))
            os << histogramSvg(*wo, "event-wheel occupancy (sampled)",
                               "entries", "samples");
        if (const JsonValue *oo = eq->find("overflow_occupancy"))
            os << histogramSvg(*oo,
                               "overflow-heap occupancy (sampled)",
                               "entries", "samples");
        os << "</div>\n";
    }
    if (const JsonValue *tables = perf.find("tables")) {
        os << "<div class=\"charts\">\n";
        for (const auto &member : tables->members()) {
            if (const JsonValue *pl = member.second.find("probe_length"))
                os << histogramSvg(*pl,
                                   member.first + " probe length",
                                   "probes", "lookups");
        }
        os << "</div>\n";
        os << "<p class=\"meta\">";
        bool first = true;
        for (const auto &member : tables->members()) {
            if (!first)
                os << " &middot; ";
            first = false;
            os << htmlEscape(member.first) << ": "
               << human(member.second.numberAt("growth_rehashes"))
               << " rehashes, "
               << human(member.second.numberAt("tombstone_cleanups"))
               << " cleanups, peak "
               << human(member.second.numberAt("max_entries"))
               << " entries, load "
               << fmt(member.second.numberAt("load_factor"), 3);
        }
        os << "</p>\n";
    }
    if (const JsonValue *mesh = perf.find("mesh")) {
        os << "<div class=\"charts\">\n";
        if (const JsonValue *sb = mesh->find("send_backlog"))
            os << histogramSvg(*sb, "mesh send backlog (per hop)",
                               "flits", "hops");
        if (const JsonValue *ll = mesh->find("leg_length"))
            os << histogramSvg(*ll, "XY route leg length", "hops",
                               "legs");
        os << "</div>\n";
    }
}

/**
 * Address-space section from "results.pages" (--pages runs): a
 * host-address-range snoop heatmap strip, the top-offender table
 * with per-FilterReason stacked bars, and lifecycle-transition
 * tiles.  Runs without --pages lack the key and skip the section.
 */
void
renderPagesSection(std::ostream &os, const JsonValue &pages)
{
    os << "<h2>Address space (--pages)</h2>\n";
    os << "<div class=\"tiles\">\n";
    os << statTile("snoop lookups",
                   human(pages.numberAt("total_lookups")));
    os << statTile("tracked pages", human(pages.numberAt("tracked")));
    os << statTile("folded (evicted)",
                   human(pages.numberAt("truncated_lookups")));
    if (const JsonValue *tr = pages.find("transitions")) {
        os << statTile("page maps", human(tr->numberAt("maps")));
        os << statTile("type changes",
                       human(tr->numberAt("type_changes")));
        os << statTile("COW breaks", human(tr->numberAt("cow_breaks")));
        os << statTile("remaps", human(tr->numberAt("remaps")));
    }
    os << "</div>\n";
    if (const JsonValue *census = pages.find("census")) {
        os << "<p class=\"meta\">mapped-page census:";
        for (const auto &member : census->members())
            os << " " << htmlEscape(member.first) << " "
               << human(member.second.number());
        os << "</p>\n";
    }

    const JsonValue *top = pages.find("top");
    if (top == nullptr || !top->isArray() || top->items().empty())
        return;

    // Address-range heatmap strip: tracked-page lookups bucketed
    // over the spanned host address range.
    double min_page = 0.0, max_page = 0.0;
    bool have_span = false;
    for (const JsonValue &cell : top->items()) {
        double page = cell.numberAt("page");
        if (!have_span || page < min_page)
            min_page = page;
        if (!have_span || page > max_page)
            max_page = page;
        have_span = true;
    }
    if (have_span) {
        constexpr std::size_t kBuckets = 48;
        constexpr int kBw = 12, kBh = 18, kPadL = 8, kPadT = 24;
        double span = std::max(1.0, max_page - min_page + 1.0);
        std::vector<double> buckets(kBuckets, 0.0);
        for (const JsonValue &cell : top->items()) {
            double page = cell.numberAt("page");
            std::size_t b = std::min(
                kBuckets - 1,
                static_cast<std::size_t>((page - min_page) / span *
                                         static_cast<double>(kBuckets)));
            buckets[b] += cell.numberAt("lookups");
        }
        double max_b = 0.0;
        for (double v : buckets)
            max_b = std::max(max_b, v);
        int w = kPadL + kBw * static_cast<int>(kBuckets) + 8;
        int h = kPadT + kBh + 26;
        os << "<div class=\"charts\">\n";
        os << "<svg class=\"pageheat\" width=\"" << w
           << "\" height=\"" << h << "\" viewBox=\"0 0 " << w << " "
           << h << "\" role=\"img\" aria-label=\"host address-range "
           << "snoop heatmap\">\n";
        os << "<text x=\"0\" y=\"12\" class=\"charttitle\">snoop "
              "lookups by host address range (tracked pages)</text>\n";
        for (std::size_t b = 0; b < kBuckets; ++b) {
            double lo = min_page +
                        span * static_cast<double>(b) /
                            static_cast<double>(kBuckets);
            double hi = min_page +
                        span * static_cast<double>(b + 1) /
                            static_cast<double>(kBuckets);
            char range[64];
            std::snprintf(range, sizeof(range), "0x%llx-0x%llx",
                          static_cast<unsigned long long>(lo) << 12,
                          static_cast<unsigned long long>(hi) << 12);
            const char *color =
                (max_b > 0.0 && buckets[b] > 0.0)
                    ? rampColor(buckets[b] / max_b)
                    : "var(--grid)";
            os << "<rect x=\""
               << kPadL + static_cast<int>(b) * kBw << "\" y=\""
               << kPadT << "\" width=\"" << kBw - 1 << "\" height=\""
               << kBh << "\" fill=\"" << color << "\"><title>" << range
               << ": " << human(buckets[b])
               << " lookups</title></rect>\n";
        }
        char lo_lbl[32], hi_lbl[32];
        std::snprintf(lo_lbl, sizeof(lo_lbl), "0x%llx",
                      static_cast<unsigned long long>(min_page) << 12);
        std::snprintf(hi_lbl, sizeof(hi_lbl), "0x%llx",
                      static_cast<unsigned long long>(max_page + 1)
                          << 12);
        os << "<text x=\"" << kPadL << "\" y=\"" << kPadT + kBh + 14
           << "\">" << lo_lbl << "</text>\n";
        os << "<text x=\"" << kPadL + kBw * static_cast<int>(kBuckets)
           << "\" y=\"" << kPadT + kBh + 14
           << "\" text-anchor=\"end\">" << hi_lbl << "</text>\n";
        os << "</svg>\n";
        os << "</div>\n";
    }

    // Top-offender table: hottest pages with a per-FilterReason
    // stacked bar (colors shared with the waterfall legend).
    std::vector<std::string> reason_names;
    for (const JsonValue &cell : top->items()) {
        if (const JsonValue *by_reason = cell.find("by_reason")) {
            for (const auto &member : by_reason->members())
                reason_names.push_back(member.first);
        }
        break;
    }
    os << "<table class=\"pagetable\">\n<tr><th>page</th><th>type</th>"
          "<th>lookups</th><th>misses</th><th>cross-VM</th>"
          "<th>sharers</th><th>snoop attempts by reason</th></tr>\n";
    std::size_t shown = 0;
    for (const JsonValue &cell : top->items()) {
        if (shown++ == 20)
            break;
        char page_hex[32];
        std::snprintf(page_hex, sizeof(page_hex), "0x%llx",
                      static_cast<unsigned long long>(
                          cell.numberAt("page")) << 12);
        double sharer_mask = cell.numberAt("sharers");
        unsigned sharers = 0;
        for (unsigned long long m =
                 static_cast<unsigned long long>(sharer_mask);
             m != 0; m >>= 1)
            sharers += m & 1;
        os << "<tr><td>" << page_hex << "</td><td>"
           << htmlEscape(cell.stringAt("type")) << "</td><td>"
           << human(cell.numberAt("lookups")) << "</td><td>"
           << human(cell.numberAt("misses")) << "</td><td>"
           << human(cell.numberAt("cross_vm")) << "</td><td>"
           << sharers << "</td><td>";
        if (const JsonValue *by_reason = cell.find("by_reason")) {
            double total = 0.0;
            for (const auto &member : by_reason->members())
                total += member.second.number();
            constexpr int kBarW = 180, kBarH = 12;
            os << "<svg width=\"" << kBarW << "\" height=\"" << kBarH
               << "\" viewBox=\"0 0 " << kBarW << " " << kBarH
               << "\">";
            double x = 0.0;
            std::size_t s = 0;
            for (const auto &member : by_reason->members()) {
                double v = member.second.number();
                std::size_t color = s++;
                if (total <= 0.0 || v <= 0.0)
                    continue;
                double bw = v / total * kBarW;
                os << "<rect x=\"" << fmt(x, 1)
                   << "\" y=\"0\" width=\""
                   << fmt(std::max(bw, 1.0), 1) << "\" height=\""
                   << kBarH << "\" fill=\""
                   << kSegColors[color % kNumSegColors] << "\"><title>"
                   << htmlEscape(member.first) << ": " << human(v)
                   << " (" << fmt(100.0 * v / total, 1)
                   << "%)</title></rect>";
                x += bw;
            }
            os << "</svg>";
        }
        os << "</td></tr>\n";
    }
    os << "</table>\n";
    if (!reason_names.empty()) {
        os << "<p class=\"meta\">reason colors:";
        for (std::size_t s = 0; s < reason_names.size(); ++s)
            os << " <span style=\"color:"
               << kSegColors[s % kNumSegColors] << "\">&#9632;</span> "
               << htmlEscape(reason_names[s]);
        os << "</p>\n";
    }
}

void
renderRecord(std::ostream &os, const JsonValue &rec)
{
    const JsonValue *results = rec.find("results");
    os << "<section class=\"card\">\n";
    os << "<h2>" << htmlEscape(runKey(rec)) << "</h2>\n";

    // Headline stat tiles.
    double transactions = resultNum(rec, "transactions");
    os << "<div class=\"tiles\">\n";
    os << statTile("runtime (ticks)", human(resultNum(rec, "runtime")));
    os << statTile("transactions", human(transactions));
    os << statTile("snoops / transaction",
                   fmt(resultNum(rec, "snoops_per_transaction"), 2));
    os << statTile("traffic (byte-hops)",
                   human(resultNum(rec, "traffic_byte_hops")));
    os << statTile("mean miss latency",
                   fmt(resultNum(rec, "mean_miss_latency"), 1));
    double retries = resultNum(rec, "retries");
    os << statTile("retries", human(retries));
    os << "</div>\n";

    // Per-link heatmaps.
    unsigned width = 4, height = 4;
    if (const JsonValue *config = rec.find("config")) {
        width = static_cast<unsigned>(
            std::max(1.0, config->numberAt("mesh_width", 4)));
        height = static_cast<unsigned>(
            std::max(1.0, config->numberAt("mesh_height", 4)));
    }
    std::vector<LinkRec> request_links = extractLinks(rec, "request");
    if (!request_links.empty()) {
        os << "<div class=\"charts\">\n";
        os << heatmapSvg(request_links, width, height,
                         "request byte-hops per link");
        os << heatmapSvg(extractLinks(rec, ""), width, height,
                         "total byte-hops per link");
        os << "</div>\n";
    }

    // Latency histograms and the filter-reason breakdown.
    if (const JsonValue *latency =
            results ? results->find("latency") : nullptr) {
        os << "<div class=\"charts\">\n";
        if (const JsonValue *all = latency->find("all"))
            os << histogramSvg(*all, "miss latency, all (ticks)");
        if (const JsonValue *ft = latency->find("first_try"))
            os << histogramSvg(*ft, "first-try");
        if (const JsonValue *rt = latency->find("retried"))
            os << histogramSvg(*rt, "retried / persistent");
        os << "</div>\n";
        if (const JsonValue *by_reason = latency->find("by_reason")) {
            os << "<div class=\"charts\">\n";
            os << reasonBarsSvg(*by_reason);
            for (const auto &member : by_reason->members()) {
                if (member.second.numberAt("count") > 0.0)
                    os << histogramSvg(member.second, member.first);
            }
            os << "</div>\n";
        }
    }

    // Critical-path waterfall and the inter-VM interference
    // heatmap (records from before the critpath subsystem simply
    // lack the keys and skip both).
    {
        const JsonValue *critpath =
            results ? results->find("critpath") : nullptr;
        const JsonValue *interference =
            results ? results->find("interference") : nullptr;
        std::string waterfall =
            critpath ? waterfallSvg(*critpath) : std::string();
        std::string interheat =
            interference ? interferenceSvg(*interference)
                         : std::string();
        if (!waterfall.empty() || !interheat.empty()) {
            os << "<div class=\"charts\">\n" << waterfall << interheat
               << "</div>\n";
        }
    }

    // Time series, when the run sampled one.
    if (const JsonValue *series = rec.find("timeseries")) {
        os << "<div class=\"charts\">\n"
           << timeseriesSvg(*series) << "</div>\n";
    }

    // Simulator internals, when the run was measured with --perf.
    if (const JsonValue *perf = results ? results->find("perf") : nullptr)
        renderPerfSection(os, *perf);
    // Address-space forensics, when the run attributed with --pages.
    if (const JsonValue *pages =
            results ? results->find("pages") : nullptr)
        renderPagesSection(os, *pages);
    os << "</section>\n";
}

const char *kCss = R"css(
body { margin: 0; font-family: system-ui, -apple-system, "Segoe UI",
       sans-serif; background: var(--page); color: var(--ink); }
.viz {
  color-scheme: light;
  --surface: #fcfcfb; --page: #f9f9f7;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz {
    color-scheme: dark;
    --surface: #1a1a19; --page: #0d0d0d;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926;
  }
}
:root[data-theme="dark"] .viz {
  color-scheme: dark;
  --surface: #1a1a19; --page: #0d0d0d;
  --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
  --grid: #2c2c2a; --axis: #383835;
  --border: rgba(255,255,255,0.10);
  --series-1: #3987e5; --series-2: #d95926;
}
.page { max-width: 1180px; margin: 0 auto; padding: 24px; }
h1 { font-size: 20px; font-weight: 650; }
h2 { font-size: 15px; font-weight: 650; margin: 0 0 12px; }
.meta { color: var(--ink-2); font-size: 13px; }
.card { background: var(--surface); border: 1px solid var(--border);
        border-radius: 8px; padding: 18px 22px; margin: 18px 0; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px 28px;
         margin-bottom: 14px; }
.tile .v { font-size: 22px; font-weight: 600; }
.tile .l { font-size: 12px; color: var(--ink-2); }
.charts { display: flex; flex-wrap: wrap; gap: 10px 34px;
          align-items: flex-start; margin: 10px 0; }
svg text { fill: var(--ink-2); font-size: 10.5px; }
svg text.charttitle { fill: var(--ink); font-size: 12px;
                      font-weight: 600; }
svg text.mutedtext { fill: var(--muted); }
svg .node { fill: var(--surface); stroke: var(--axis); }
svg .bar { fill: var(--series-1); }
svg .axisline { stroke: var(--axis); stroke-width: 1; }
svg .gridline { stroke: var(--grid); stroke-width: 1; }
svg .line1 { fill: none; stroke: var(--series-1); stroke-width: 2; }
svg .line2 { fill: none; stroke: var(--series-2); stroke-width: 2; }
svg .swatch1 { fill: var(--series-1); }
svg .swatch2 { fill: var(--series-2); }
svg .hit { fill: transparent; }
svg .hit:hover { fill: var(--series-1); fill-opacity: 0.25; }
table.pagetable { border-collapse: collapse; font-size: 12.5px;
                  margin: 10px 0; }
table.pagetable th { text-align: left; color: var(--ink-2);
                     font-weight: 600; }
table.pagetable th, table.pagetable td {
  padding: 3px 14px 3px 0; border-bottom: 1px solid var(--grid); }
)css";

int
runReport(const std::vector<std::string> &inputs,
          const std::string &out_path)
{
    constexpr std::size_t kMaxRecords = 12;
    std::vector<JsonValue> records;
    for (const std::string &path : inputs) {
        std::vector<JsonValue> file_records = loadRecords(path);
        for (JsonValue &rec : file_records)
            records.push_back(std::move(rec));
    }
    std::size_t total = records.size();
    if (records.size() > kMaxRecords) {
        std::cerr << "vsnoopreport: rendering the first " << kMaxRecords
                  << " of " << total << " records\n";
        records.resize(kMaxRecords);
    }

    std::ofstream os(out_path, std::ios::binary);
    if (!os)
        die("cannot open --out file '" + out_path + "'");
    os << "<!doctype html>\n<html lang=\"en\">\n<head>\n"
          "<meta charset=\"utf-8\">\n"
          "<meta name=\"viewport\" content=\"width=device-width, "
          "initial-scale=1\">\n"
          "<title>vsnoop run report</title>\n<style>"
       << kCss << "</style>\n</head>\n<body class=\"viz\">\n"
       << "<div class=\"page\">\n<h1>vsnoop run report</h1>\n"
       << "<p class=\"meta\">" << records.size() << " of " << total
       << " run record(s); hover any mark for exact values.</p>\n";
    for (const JsonValue &rec : records)
        renderRecord(os, rec);
    os << "</div>\n</body>\n</html>\n";
    if (!os)
        die("write to '" + out_path + "' failed");
    std::cerr << "vsnoopreport: wrote " << out_path << " ("
              << records.size() << " record(s))\n";
    return 0;
}

// ---------------------------------------------------------------------
// Trend mode (bench_selfperf --append-history output)
// ---------------------------------------------------------------------

/** Per-phase throughput rates charted across history records. */
constexpr const char *kTrendMetrics[] = {
    "runs_per_sec",
    "events_per_sec",
    "sim_cycles_per_sec",
};

/** One line on a trend chart: a phase's rate per history record. */
struct TrendSeries
{
    std::string phase;
    std::vector<double> values;
};

/**
 * Multi-series line chart over history records: one line per phase,
 * x advancing one step per record, hover labels carrying the commit
 * each record was measured at.  Phase colors reuse the segment
 * palette so the same phase wears the same color on every metric's
 * chart.
 */
std::string
trendSvg(const std::string &title,
         const std::vector<std::string> &xlabels,
         const std::vector<TrendSeries> &series)
{
    constexpr int kW = 640, kPlotH = 150;
    int legend_lines =
        static_cast<int>((series.size() + 3) / 4);
    int top = 22 + 16 * legend_lines + 6;
    int h = top + kPlotH + 26;
    std::size_t n = xlabels.size();

    double max_v = 0.0;
    for (const TrendSeries &s : series)
        for (double v : s.values)
            max_v = std::max(max_v, v);
    if (max_v <= 0.0)
        max_v = 1.0;

    auto px = [&](std::size_t i) {
        if (n <= 1)
            return static_cast<double>(kW) / 2.0;
        return 10.0 + static_cast<double>(i) /
                          static_cast<double>(n - 1) * (kW - 20);
    };
    auto py = [&](double v) {
        return static_cast<double>(top + kPlotH) - v / max_v * kPlotH;
    };

    std::ostringstream svg;
    svg << "<svg class=\"trend\" width=\"" << kW << "\" height=\"" << h
        << "\" viewBox=\"0 0 " << kW << " " << h
        << "\" role=\"img\" aria-label=\"" << htmlEscape(title)
        << "\">\n";
    svg << "<text x=\"0\" y=\"12\" class=\"charttitle\">"
        << htmlEscape(title) << "</text>\n";
    for (std::size_t s = 0; s < series.size(); ++s) {
        int lx = 10 + static_cast<int>(s % 4) * 156;
        int ly = 22 + static_cast<int>(s / 4) * 16;
        svg << "<rect x=\"" << lx << "\" y=\"" << ly
            << "\" width=\"10\" height=\"10\" rx=\"2\" fill=\""
            << kSegColors[s % kNumSegColors] << "\"/>"
            << "<text x=\"" << lx + 14 << "\" y=\"" << ly + 9 << "\">"
            << htmlEscape(series[s].phase) << "</text>\n";
    }
    for (int g = 0; g <= 2; ++g) {
        int gy = top + kPlotH * g / 2;
        svg << "<line x1=\"10\" y1=\"" << gy << "\" x2=\"" << kW - 10
            << "\" y2=\"" << gy << "\" class=\"gridline\"/>\n";
    }
    svg << "<text x=\"10\" y=\"" << top - 4 << "\">" << human(max_v)
        << "</text>\n";
    if (n > 0) {
        svg << "<text x=\"10\" y=\"" << top + kPlotH + 14 << "\">"
            << htmlEscape(xlabels.front()) << "</text>\n";
        if (n > 1)
            svg << "<text x=\"" << kW - 10 << "\" y=\""
                << top + kPlotH + 14 << "\" text-anchor=\"end\">"
                << htmlEscape(xlabels.back()) << "</text>\n";
    }
    for (std::size_t s = 0; s < series.size(); ++s) {
        const TrendSeries &ts = series[s];
        const char *color = kSegColors[s % kNumSegColors];
        std::ostringstream pts;
        for (std::size_t i = 0; i < ts.values.size() && i < n; ++i)
            pts << fmt(px(i), 1) << "," << fmt(py(ts.values[i]), 1)
                << " ";
        svg << "<polyline points=\"" << pts.str()
            << "\" fill=\"none\" stroke=\"" << color
            << "\" stroke-width=\"2\"/>\n";
        for (std::size_t i = 0; i < ts.values.size() && i < n; ++i) {
            svg << "<circle cx=\"" << fmt(px(i), 1) << "\" cy=\""
                << fmt(py(ts.values[i]), 1)
                << "\" r=\"5\" class=\"hit\"><title>"
                << htmlEscape(xlabels[i]) << " "
                << htmlEscape(ts.phase) << ": "
                << human(ts.values[i]) << "</title></circle>\n";
        }
    }
    svg << "</svg>\n";
    return svg.str();
}

/**
 * Chart a bench_selfperf history file: one card per throughput
 * metric, one line per phase (plus the matrix total), x stepping
 * through the records in file order.  A record's commit label gets
 * a trailing * when it was measured from a dirty build
 * (--allow-dirty), so suspect points are visible on the chart.
 */
int
runTrend(const std::string &path, const std::string &out_path)
{
    std::vector<JsonValue> records = loadRecords(path, "history");

    std::vector<std::string> phase_names;
    std::vector<std::string> xlabels;
    // rates[metric][phase] -> one value per record.
    std::map<std::string, std::map<std::string, std::vector<double>>>
        rates;
    auto notePhase = [&](const std::string &name) {
        if (std::find(phase_names.begin(), phase_names.end(), name) ==
            phase_names.end())
            phase_names.push_back(name);
    };
    for (std::size_t r = 0; r < records.size(); ++r) {
        const JsonValue &rec = records[r];
        const JsonValue *phases = rec.find("phases");
        if (phases == nullptr || !phases->isArray())
            die("'" + path + "' record " + std::to_string(r + 1) +
                " has no phases array; is this a bench_selfperf "
                "--append-history file?");
        const JsonValue *meta = rec.find("meta");
        std::string label =
            meta ? meta->stringAt("git", "?") : std::string("?");
        if (rec.numberAt("dirty", 0) != 0.0 &&
            label.find("-dirty") == std::string::npos)
            label += "*";
        xlabels.push_back(label);

        auto record_phase = [&](const JsonValue &p) {
            std::string name = p.stringAt("phase", "?");
            notePhase(name);
            for (const char *metric : kTrendMetrics) {
                std::vector<double> &vals = rates[metric][name];
                // Pad phases absent from earlier records so every
                // series stays index-aligned with xlabels.
                vals.resize(r, 0.0);
                vals.push_back(p.numberAt(metric, 0));
            }
        };
        for (const JsonValue &p : phases->items())
            record_phase(p);
        if (const JsonValue *total = rec.find("total"))
            record_phase(*total);
    }
    for (auto &metric : rates)
        for (auto &phase : metric.second)
            phase.second.resize(records.size(), 0.0);

    std::ofstream os(out_path, std::ios::binary);
    if (!os)
        die("cannot open --out file '" + out_path + "'");
    os << "<!doctype html>\n<html lang=\"en\">\n<head>\n"
          "<meta charset=\"utf-8\">\n"
          "<meta name=\"viewport\" content=\"width=device-width, "
          "initial-scale=1\">\n"
          "<title>vsnoop selfperf trend</title>\n<style>"
       << kCss << "</style>\n</head>\n<body class=\"viz\">\n"
       << "<div class=\"page\">\n<h1>selfperf throughput trend</h1>\n"
       << "<p class=\"meta\">" << records.size() << " record(s) from "
       << htmlEscape(path)
       << "; * marks records measured from a dirty build; hover any "
          "point for exact values.</p>\n";
    for (const char *metric : kTrendMetrics) {
        std::vector<TrendSeries> series;
        for (const std::string &name : phase_names)
            series.push_back({name, rates[metric][name]});
        os << "<section class=\"card\">\n";
        os << "<h2>" << htmlEscape(metric) << "</h2>\n";
        os << "<div class=\"charts\">\n"
           << trendSvg(std::string(metric) + " per phase", xlabels,
                       series)
           << "</div>\n";
        os << "</section>\n";
    }
    os << "</div>\n</body>\n</html>\n";
    if (!os)
        die("write to '" + out_path + "' failed");
    std::cerr << "vsnoopreport: wrote " << out_path << " ("
              << records.size() << " history record(s), "
              << phase_names.size() << " phase(s))\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::size_t eq;
        if (arg.rfind("--", 0) == 0 &&
            (eq = arg.find('=')) != std::string::npos) {
            args.push_back(arg.substr(0, eq));
            args.push_back(arg.substr(eq + 1));
        } else {
            args.push_back(std::move(arg));
        }
    }

    bool diff_mode = false;
    bool trend_mode = false;
    double threshold = 0.05;
    std::string out_path;
    std::vector<std::string> inputs;

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &flag = args[i];
        if (flag == "--help" || flag == "-h") {
            usage();
            return 0;
        } else if (flag == "--diff") {
            diff_mode = true;
        } else if (flag == "--trend") {
            trend_mode = true;
        } else if (flag == "--threshold") {
            std::string value = nextValue(args, i);
            char *end = nullptr;
            threshold = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' || threshold < 0.0)
                die("--threshold expects a non-negative number, got '" +
                    value + "'");
        } else if (flag == "--out") {
            out_path = nextValue(args, i);
        } else if (flag.rfind("--", 0) == 0) {
            die("unknown flag '" + flag + "' (try --help)");
        } else {
            inputs.push_back(flag);
        }
    }

    if (diff_mode && trend_mode)
        die("--diff and --trend are mutually exclusive");
    if (diff_mode) {
        if (inputs.size() != 2)
            die("--diff expects exactly two files: baseline current");
        return runDiff(inputs[0], inputs[1], threshold);
    }
    if (trend_mode) {
        if (inputs.size() != 1)
            die("--trend expects exactly one history file");
        return runTrend(inputs[0],
                        out_path.empty() ? "trend.html" : out_path);
    }
    if (inputs.empty())
        die("no input files (try --help)");
    return runReport(inputs,
                     out_path.empty() ? "report.html" : out_path);
}
