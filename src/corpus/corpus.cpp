#include "corpus/corpus.h"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "backends/defects.h"
#include "onnx/exporter.h"
#include "support/logging.h"

namespace nnsmith::corpus {

using backends::BackendError;
using fuzz::BugRecord;

namespace {

/** Append " v" as printf's %.17g would (to_chars is specified to match
 *  it), so float bit patterns round-trip; large leaves run to MBs. */
void
renderElement(std::ostringstream& os, double v)
{
    char buffer[32] = {' '};
    const auto end = std::to_chars(buffer + 1, buffer + sizeof(buffer), v,
                                   std::chars_format::general, 17);
    os.write(buffer, end.ptr - buffer);
}

void
renderLeaves(std::ostringstream& os, const exec::LeafValues& leaves)
{
    // Repros must be replayable: every element, at %.17g (matching the
    // seq-repro buffer dump; Tensor::toString truncates and prints 6
    // digits).
    for (const auto& [value_id, tensor] : leaves) {
        os << "  %" << value_id << ": "
           << tensor::dtypeName(tensor.dtype())
           << tensor.shape().toString() << " =";
        for (int64_t i = 0; i < tensor.numel(); ++i)
            renderElement(os, tensor.scalarAt(i));
        os << "\n";
    }
}

} // namespace

std::string
renderRepro(const BugRecord& bug)
{
    std::ostringstream os;
    os << schema::kMagic << "\n";
    os << schema::kFingerprint << bug.dedupKey << "\n";
    os << schema::kBackend << bug.backend << "\n";
    os << schema::kKind << bug.kind << "\n";
    os << schema::kDetail << bug.detail << "\n";
    // The minimized repro's own trigger trace; the discovery-time
    // trace is kept alongside when reduction stripped co-triggered
    // noise from it.
    const auto& defects =
        bug.minimized ? bug.minimizedDefects : bug.defects;
    os << schema::kDefects;
    for (const auto& defect : defects)
        os << " " << defect;
    os << "\n";
    if (bug.minimized && bug.minimizedDefects != bug.defects) {
        os << schema::kDiscoveryDefects;
        for (const auto& defect : bug.defects)
            os << " " << defect;
        os << "\n";
    }
    if (bug.minimized) {
        os << schema::kReduction << bug.originalSize << " -> "
           << bug.minimizedSize
           << (bug.graphRepro != nullptr ? " op nodes" : " passes")
           << " (ddmin)\n";
    } else {
        os << schema::kReduction << schema::kReductionNone << "\n";
    }
    if (bug.graphRepro != nullptr) {
        const auto& repro = *bug.graphRepro;
        os << "\n" << schema::kSectionGraph << "\n"
           << repro.graph.toString() << "\n";
        os << "\n" << schema::kSectionLeaves << "\n";
        renderLeaves(os, repro.leaves);
        // The deployable artifact; for export-crash bugs the export
        // *is* the defect, so the graph rendering above is the repro.
        try {
            const auto model = onnx::exportGraph(repro.graph);
            os << "\n" << schema::kSectionOnnx << "\n"
               << model.serialize() << "\n";
        } catch (const BackendError& error) {
            os << "\n" << schema::kSectionOnnx << "\n(export crashes: "
               << error.kind()
               << " — replay the graph above through the exporter)\n";
        }
    } else if (bug.graphSeqRepro != nullptr) {
        // A graph-level pass-sequence repro (backends/graph_pass.h):
        // sequence first (the reduced dimension), then the model and
        // its leaves. Replay re-exports the graph, so no onnx section.
        const auto& repro = *bug.graphSeqRepro;
        os << "\n" << schema::kSectionSequence << "\n";
        for (size_t i = 0; i < repro.sequence.size(); ++i)
            os << (i > 0 ? "," : "") << repro.sequence[i];
        os << "\n\n" << schema::kSectionGraph << "\n"
           << repro.graph.toString() << "\n";
        os << "\n" << schema::kSectionLeaves << "\n";
        renderLeaves(os, repro.leaves);
    } else if (bug.seqRepro != nullptr) {
        const auto& repro = *bug.seqRepro;
        os << "\n" << schema::kSectionSequence << "\n";
        for (size_t i = 0; i < repro.sequence.size(); ++i)
            os << (i > 0 ? "," : "") << repro.sequence[i];
        os << "\n\n" << schema::kSectionProgram << "\n"
           << repro.program.toString() << "\n";
        if (!repro.initial.empty()) {
            os << "\n" << schema::kSectionBuffers << "\n";
            for (size_t b = 0; b < repro.initial.size(); ++b) {
                os << "  buffer[" << b << "]:";
                for (const double v : repro.initial[b])
                    renderElement(os, v);
                os << "\n";
            }
        }
    }
    return os.str();
}

std::vector<CorpusEntry>
parseIndexTsv(const std::string& text)
{
    std::vector<CorpusEntry> entries;
    std::istringstream is(text);
    std::string line;
    if (!std::getline(is, line) || line != schema::kIndexHeader)
        throw ParseError("index.tsv: missing or wrong header line (want '" +
                         std::string(schema::kIndexHeader) + "')");
    size_t row = 1;
    while (std::getline(is, line)) {
        ++row;
        if (line.empty())
            continue;
        std::vector<std::string> cols;
        size_t start = 0;
        while (true) {
            const auto tab = line.find('\t', start);
            cols.push_back(line.substr(start, tab == std::string::npos
                                                  ? std::string::npos
                                                  : tab - start));
            if (tab == std::string::npos)
                break;
            start = tab + 1;
        }
        if (cols.size() != 5)
            throw ParseError("index.tsv row " + std::to_string(row) +
                             ": expected 5 tab-separated columns, got " +
                             std::to_string(cols.size()));
        auto parse_size = [&](const std::string& field,
                              const char* what) -> size_t {
            // Digits only: stoull quietly wraps "-1", so a sign (or
            // anything else non-numeric) must be rejected up front.
            bool digits = !field.empty();
            for (const char c : field)
                digits = digits && c >= '0' && c <= '9';
            unsigned long long value = 0;
            try {
                if (digits)
                    value = std::stoull(field);
            } catch (const std::exception&) {
                digits = false;
            }
            if (!digits)
                throw ParseError("index.tsv row " + std::to_string(row) +
                                 ": non-numeric " + what + " column '" +
                                 field + "'");
            return static_cast<size_t>(value);
        };
        CorpusEntry entry;
        entry.fingerprint = cols[0];
        entry.file = cols[1];
        entry.kind = cols[2];
        entry.originalSize = parse_size(cols[3], "original");
        entry.minimizedSize = parse_size(cols[4], "minimized");
        if (entry.fingerprint.empty() || entry.file.empty())
            throw ParseError("index.tsv row " + std::to_string(row) +
                             ": empty fingerprint or file column");
        entries.push_back(std::move(entry));
    }
    return entries;
}

std::vector<CorpusEntry>
loadCorpusIndex(const std::string& dir)
{
    const auto path = std::filesystem::path(dir) / "index.tsv";
    std::error_code ec;
    if (!std::filesystem::exists(path, ec) || ec)
        throw ParseError("corpus: no index.tsv in '" + dir + "'");
    return parseIndexTsv(readCorpusFile(path.string()));
}

std::string
readCorpusFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw ParseError("corpus: cannot read '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
writeCorpusFile(const std::string& path, const std::string& content)
{
    FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        fatal("corpus: cannot write " + path);
    std::fwrite(content.data(), 1, content.size(), file);
    std::fclose(file);
}

} // namespace nnsmith::corpus
