#include "bio/fasta.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <numeric>
#include <span>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace mrmc::bio {

namespace detail {

// Called by the FASTA and FASTQ parsers for every quarantined record, so
// both feed one metric the pipeline doctor and dashboards can watch.
void note_malformed(ParseReport* report, const std::string& reason) {
  obs::Registry::global().counter("bio.malformed_records").add();
  if (report == nullptr) return;
  ++report->skipped;
  report->reasons.push_back(reason);
}

}  // namespace detail

namespace {

// Per-thread scratch, kept from chunk to chunk: the bytes of a chunk read
// from a file, and the open record's sequence lines.  A buffer that one
// huge record grew past kKeepBytes is dropped after its chunk, so a pool
// worker does not hold it for the life of the process.
thread_local std::string chunk_bytes;
thread_local std::string seq_lines;
constexpr std::size_t kKeepBytes = 4 * detail::kFastaChunkBytes;

void release_if_large(std::string& scratch) {
  if (scratch.capacity() > kKeepBytes) std::string().swap(scratch);
}

// A chunk whose headers differ in number between the count and the parse.
constexpr const char* kInputChanged = "fasta: the input changed while it was read";

common::IoError read_error(const std::string& path, std::string_view why) {
  return common::IoError("fasta: cannot read '" + path + "': " + std::string(why));
}

/// Text already in memory: a read is a view of it.
class TextSource {
 public:
  explicit TextSource(std::string_view text) : text_(text) {}

  [[nodiscard]] std::size_t size() const noexcept { return text_.size(); }

  std::string_view read(std::size_t offset, std::size_t length,
                        std::string& /*buffer*/) const {
    return text_.substr(offset, length);
  }

 private:
  std::string_view text_;
};

/// A regular file: a read preads the range into the caller's buffer, so
/// only the chunks being parsed are in memory, never the whole file.
class FileSource {
 public:
  FileSource(int fd, std::size_t size, const std::string& path)
      : fd_(fd), size_(size), path_(&path) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  std::string_view read(std::size_t offset, std::size_t length,
                        std::string& buffer) const {
    buffer.resize(length);
    for (std::size_t done = 0; done < length;) {
      const ssize_t got = ::pread(fd_, buffer.data() + done, length - done,
                                  static_cast<off_t>(offset + done));
      if (got > 0) {
        done += static_cast<std::size_t>(got);
      } else if (got == 0) {
        throw read_error(*path_, "the file shrank while it was read");
      } else if (errno != EINTR) {
        throw read_error(*path_, std::strerror(errno));
      }
    }
    return {buffer.data(), length};
  }

 private:
  int fd_;
  std::size_t size_;
  const std::string* path_;
};

/// The chunk boundaries: 0, then each cut kFastaChunkBytes past the one
/// before, moved forward to the next record start, then the input's size.
/// A record start is a '>' right after a '\n', so every chunk but the
/// first begins with a header and no record spans two chunks.  The cuts are
/// found with probes of kFastaProbeBytes.
template <class Source>
std::vector<std::size_t> chunk_cuts(const Source& source) {
  const std::size_t size = source.size();
  std::vector<std::size_t> cuts{0};
  std::string probe;
  while (cuts.back() < size) {
    std::size_t cut = size;
    // Probe from the byte before the nominal cut, which may be the '\n';
    // probes overlap by one byte, so a "\n>" across two of them is found.
    for (std::size_t at = cuts.back() + detail::kFastaChunkBytes - 1;
         at + 1 < size;) {
      const std::string_view bytes =
          source.read(at, std::min(detail::kFastaProbeBytes, size - at), probe);
      if (const std::size_t hit = bytes.find("\n>"); hit != std::string_view::npos) {
        cut = at + hit + 1;
        break;
      }
      at += bytes.size() - 1;
    }
    cuts.push_back(cut);
  }
  return cuts;
}

/// Header lines in a chunk: '>' at the chunk's start or after a '\n'.
std::size_t count_headers(std::string_view text) {
  std::size_t count = 0;
  for (std::size_t at = 0; (at = text.find('>', at)) != std::string_view::npos;
       ++at) {
    if (at == 0 || text[at - 1] == '\n') ++count;
  }
  return count;
}

/// Parses one chunk, which starts a line and ends at a record start or at
/// the end of the input, so its records are whole.  The chunk's i-th header
/// line builds its record in place in slots[i]; a quarantined record leaves
/// its slot without an id.  Each malformed record adds its message to
/// `report`: in lenient mode through note_malformed, in strict mode as the
/// chunk's only reason, and parsing stops there.  The messages are the
/// strict-mode errors verbatim, so reasons read the same either way.
void parse_chunk(std::string_view text, bool lenient,
                 std::span<FastaRecord> slots, ParseReport& report) {
  std::string& seq = seq_lines;
  seq.clear();
  FastaRecord* open = nullptr;  // the record whose sequence lines are read
  std::size_t next_slot = 0;
  bool quarantined = false;   // inside a record whose header was rejected
  bool leading_junk = false;  // already counted the pre-header garbage run

  // Each returns whether parsing stops.
  const auto fail = [&](const std::string& message) {
    if (lenient) {
      detail::note_malformed(&report, message);
      return false;
    }
    report.reasons.push_back(message);
    return true;
  };
  const auto close = [&] {
    if (open == nullptr) return false;
    FastaRecord& record = *std::exchange(open, nullptr);
    if (seq.empty()) {
      const std::string message = "fasta: record '" + record.id + "' has no sequence";
      record = {};
      return fail(message);
    }
    // Gathered in one buffer that keeps its capacity; the record gets an
    // exact-size copy (appending to its own string would leave up to twice
    // the bytes it needs).
    record.seq = std::string(seq);
    seq.clear();
    return false;
  };

  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    if (line.front() == '>') {
      if (close()) return;
      if (next_slot == slots.size()) throw common::IoError(kInputChanged);
      FastaRecord& record = slots[next_slot++];
      const std::string_view header = line.substr(1);
      const std::string_view id = header.substr(0, header.find_first_of(" \t"));
      quarantined = id.empty();
      if (quarantined) {
        // Lenient: swallow this record's sequence lines too.
        if (fail("fasta: record with empty id")) return;
        continue;
      }
      record.id = std::string(id);
      record.header = std::string(header);
      open = &record;
    } else if (open != nullptr) {
      seq += line;
    } else if (!quarantined && !leading_junk) {
      // Only the first chunk can start without a header; one count per
      // garbage run, not per line.
      if (fail("fasta: sequence data before first header")) return;
      leading_junk = true;
    }
  }
  if (close()) return;
  if (next_slot != slots.size()) throw common::IoError(kInputChanged);
}

/// The one FASTA parse: cut the input into chunks, count each chunk's
/// headers, size the record vector once, then parse each chunk into its own
/// slice of it, on `pool` (nullptr: in order on the calling thread).
template <class Source>
std::vector<FastaRecord> parse_chunks(const Source& source,
                                      common::ThreadPool* pool,
                                      const ParseOptions& options,
                                      ParseReport* report) {
  const std::vector<std::size_t> cuts = chunk_cuts(source);
  const std::size_t chunks = cuts.size() - 1;
  const auto for_each_chunk = [&](const auto& body) {
    common::parallel_for(pool, chunks, [&](std::size_t c) {
      body(c, source.read(cuts[c], cuts[c + 1] - cuts[c], chunk_bytes));
      release_if_large(chunk_bytes);
      release_if_large(seq_lines);
    });
  };

  // Chunk c's records go to slots [first_slot[c], first_slot[c + 1]).
  std::vector<std::size_t> first_slot(chunks + 1, 0);
  for_each_chunk([&](std::size_t c, std::string_view text) {
    first_slot[c + 1] = count_headers(text);
  });
  std::partial_sum(first_slot.begin(), first_slot.end(), first_slot.begin());
  std::vector<FastaRecord> records(first_slot.back());

  const bool lenient = options.on_error == OnParseError::kSkip;
  std::vector<ParseReport> found(chunks);
  for_each_chunk([&](std::size_t c, std::string_view text) {
    parse_chunk(text, lenient,
                std::span(records).subspan(first_slot[c],
                                           first_slot[c + 1] - first_slot[c]),
                found[c]);
  });

  // Chunks are in file order, so the lowest chunk's error is the file's
  // first, and merged reasons stay in file order.
  std::size_t skipped = 0;
  for (ParseReport& chunk : found) {
    if (!lenient && !chunk.reasons.empty()) {
      throw common::IoError(chunk.reasons.front());
    }
    skipped += chunk.skipped;
    if (report == nullptr) continue;
    report->skipped += chunk.skipped;
    std::move(chunk.reasons.begin(), chunk.reasons.end(),
              std::back_inserter(report->reasons));
  }
  if (skipped > 0) {
    std::erase_if(records, [](const FastaRecord& r) { return r.id.empty(); });
  }
  if (report != nullptr) report->records = records.size();
  return records;
}

/// Closes a file descriptor when the reader leaves, thrown out or not.
class FileDescriptor {
 public:
  explicit FileDescriptor(int fd) : fd_(fd) {}
  ~FileDescriptor() {
    if (fd_ >= 0) ::close(fd_);
  }
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }

 private:
  int fd_;
};

}  // namespace

std::vector<FastaRecord> read_fasta(std::istream& in,
                                    const ParseOptions& options,
                                    ParseReport* report) {
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  return read_fasta_string(text, options, report);
}

std::vector<FastaRecord> read_fasta(std::istream& in) {
  return read_fasta(in, ParseOptions{});
}

std::vector<FastaRecord> read_fasta_string(std::string_view text,
                                           const ParseOptions& options,
                                           ParseReport* report) {
  return parse_chunks(TextSource(text), nullptr, options, report);
}

std::vector<FastaRecord> read_fasta_string(std::string_view text) {
  return read_fasta_string(text, ParseOptions{});
}

std::vector<FastaRecord> detail::read_fasta_file(const std::string& path,
                                                 common::ThreadPool* pool,
                                                 const ParseOptions& options,
                                                 ParseReport* report) {
  const FileDescriptor file(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (file.get() < 0) throw common::IoError("fasta: cannot open '" + path + "'");
  struct stat info {};
  if (::fstat(file.get(), &info) != 0) throw read_error(path, std::strerror(errno));
  if (S_ISREG(info.st_mode)) {
    return parse_chunks(
        FileSource(file.get(), static_cast<std::size_t>(info.st_size), path), pool,
        options, report);
  }
  // A pipe or a device has no offsets to pread: read it to its end first.
  // Reading a directory fails here (EISDIR).
  std::string text;
  char block[1 << 16];
  for (;;) {
    const ssize_t got = ::read(file.get(), block, sizeof block);
    if (got > 0) {
      text.append(block, static_cast<std::size_t>(got));
    } else if (got == 0) {
      break;
    } else if (errno != EINTR) {
      throw read_error(path, std::strerror(errno));
    }
  }
  return parse_chunks(TextSource(text), pool, options, report);
}

std::vector<FastaRecord> read_fasta_file(const std::string& path,
                                         const ParseOptions& options,
                                         ParseReport* report) {
  ParseReport local;
  if (report == nullptr) report = &local;
  auto records =
      detail::read_fasta_file(path, &common::shared_pool(), options, report);
  if (report->skipped > 0) {
    static const obs::Logger logger("bio.fasta");
    logger.warn("skipped malformed records", {{"path", path},
                                              {"skipped", report->skipped},
                                              {"kept", records.size()}});
  }
  return records;
}

std::vector<FastaRecord> read_fasta_file(const std::string& path) {
  return read_fasta_file(path, ParseOptions{});
}

void write_fasta(std::ostream& out, const std::vector<FastaRecord>& records,
                 std::size_t width) {
  for (const auto& rec : records) {
    out << '>' << (rec.header.empty() ? rec.id : rec.header) << '\n';
    if (width == 0) {
      out << rec.seq << '\n';
    } else {
      for (std::size_t pos = 0; pos < rec.seq.size(); pos += width) {
        out << std::string_view(rec.seq).substr(pos, width) << '\n';
      }
    }
  }
}

std::string write_fasta_string(const std::vector<FastaRecord>& records,
                               std::size_t width) {
  std::ostringstream out;
  write_fasta(out, records, width);
  return out.str();
}

}  // namespace mrmc::bio
