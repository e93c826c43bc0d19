// Snapshot serializer symmetry (persist-serializer-symmetry).
//
// Each codec in src/persist/ is a (serialize_X, deserialize_X) function
// pair over the codec's ByteWriter/ByteReader; restore safety rests on
// the write sequence and the read sequence staying mirror images in
// order and type. This rule extracts, per function taking a codec by
// reference, its codec-op stream:
//
//   * primitive calls on the codec (u8/u16/u32/u64/i64/f64/str) in
//     source order — a loop body contributes its ops once, which is
//     symmetric as long as both sides loop at the same step;
//   * calls passing the codec to another function: expanded recursively
//     when the callee is known (same file or an included persist
//     header), cycle-guarded; unknown callees become an opaque
//     "call:<suffix>" op with the serialize_/deserialize_ prefix
//     stripped so symmetric unknown calls still compare equal.
//
// Pairs are matched by suffix within the file that defines them; a
// mismatch is reported on the deserializer. Functions without a codec
// parameter (whole-snapshot entry points that own a local ByteWriter)
// are out of scope — the round-trip suites cover those end-to-end.
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/functions.h"
#include "analysis/lexer.h"
#include "analysis/rules.h"

namespace piggyweb::analysis {

namespace {

bool primitive_op(std::string_view m) {
  return m == "u8" || m == "u16" || m == "u32" || m == "u64" ||
         m == "i64" || m == "f64" || m == "str";
}

std::size_t match_punct(const std::vector<Token>& toks, std::size_t open,
                        std::string_view opener, std::string_view closer,
                        std::size_t limit) {
  std::size_t depth = 0;
  for (std::size_t j = open; j < limit; ++j) {
    if (toks[j].is_punct(opener)) ++depth;
    if (toks[j].is_punct(closer) && --depth == 0) return j;
  }
  return limit;
}

// Top-level argument token ranges of the call whose '(' is at `open`.
std::vector<std::pair<std::size_t, std::size_t>> arg_ranges(
    const std::vector<Token>& toks, std::size_t open, std::size_t close) {
  std::vector<std::pair<std::size_t, std::size_t>> args;
  std::size_t piece = open + 1;
  std::size_t depth = 0;
  for (std::size_t j = open + 1; j <= close; ++j) {
    const Token& t = toks[j];
    const bool at_end = j == close;
    if (!at_end) {
      if (t.is_punct("(") || t.is_punct("<") || t.is_punct("[") ||
          t.is_punct("{")) {
        ++depth;
        continue;
      }
      if (t.is_punct(")") || t.is_punct(">") || t.is_punct("]") ||
          t.is_punct("}")) {
        if (depth > 0) --depth;
        continue;
      }
    }
    if (at_end || (depth == 0 && t.is_punct(","))) {
      if (j > piece) args.push_back({piece, j});
      piece = j + 1;
    }
  }
  return args;
}

struct Op {
  enum Kind { kPrim, kCall };
  Kind kind = kPrim;
  std::string_view text;  // kPrim: u8..str; kCall: function name
  std::uint32_t line = 0;
};

// A function taking the codec by reference.
struct CodecFn {
  std::string_view name;
  bool is_writer = false;
  std::uint32_t line = 0;
  std::vector<Op> ops;
};

// The last identifier of a parameter piece — its declared name.
std::string param_piece_name(const std::vector<Token>& toks,
                             std::size_t begin, std::size_t end) {
  for (std::size_t j = end; j-- > begin;) {
    if (toks[j].kind == TokKind::kIdent && !is_cpp_keyword(toks[j].text)) {
      if (j > begin && toks[j - 1].is_punct("::")) return {};
      return std::string(toks[j].text);
    }
    if (!toks[j].is_punct("[") && !toks[j].is_punct("]")) return {};
  }
  return {};
}

bool piece_mentions(const std::vector<Token>& toks, std::size_t begin,
                    std::size_t end, std::string_view ident) {
  for (std::size_t j = begin; j < end; ++j) {
    if (toks[j].is_ident(ident)) return true;
  }
  return false;
}

std::vector<Op> extract_ops(const std::vector<Token>& toks,
                            std::size_t begin, std::size_t end,
                            std::string_view codec) {
  std::vector<Op> ops;
  for (std::size_t i = begin; i < end; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    const bool chained = i > begin && (toks[i - 1].is_punct(".") ||
                                       toks[i - 1].is_punct("->"));

    // Primitive op on the codec: `out.u64(...)`, `in.str()`.
    if (!chained && t.text == codec && i + 3 < end &&
        (toks[i + 1].is_punct(".") || toks[i + 1].is_punct("->")) &&
        toks[i + 2].kind == TokKind::kIdent && toks[i + 3].is_punct("(")) {
      if (primitive_op(toks[i + 2].text)) {
        ops.push_back({Op::kPrim, toks[i + 2].text, toks[i + 2].line});
      }
      i += 2;  // non-primitive codec methods (ok/fits/skip) are ignored
      continue;
    }

    // A call forwarding the codec: one top-level argument is exactly
    // the codec variable.
    if (!chained && !is_cpp_keyword(t.text) && i + 1 < end &&
        toks[i + 1].is_punct("(") && t.text != codec) {
      const std::size_t close = match_punct(toks, i + 1, "(", ")", end);
      bool has_codec_arg = false;
      for (const auto& [ab, ae] : arg_ranges(toks, i + 1, close)) {
        if (ae - ab == 1 && toks[ab].is_ident(codec)) has_codec_arg = true;
      }
      if (!has_codec_arg) continue;  // keep scanning inside the args
      ops.push_back({Op::kCall, t.text, t.line});
      i = close;
    }
  }
  return ops;
}

// Canonical op text for the flattened stream: primitives as they are,
// known calls expanded recursively, unknown calls as "call:<suffix>".
struct FlatOp {
  std::string text;
  std::uint32_t line = 0;
};

struct Flattener {
  const std::map<std::string_view, const CodecFn*>& known;
  std::set<std::string_view> expanding;

  void flatten(const std::vector<Op>& ops, std::vector<FlatOp>& out) {
    for (const Op& op : ops) {
      if (op.kind == Op::kPrim) {
        out.push_back({std::string(op.text), op.line});
        continue;
      }
      const auto it = known.find(op.text);
      if (it != known.end() && !expanding.contains(it->second->name)) {
        expanding.insert(it->second->name);
        flatten(it->second->ops, out);
        expanding.erase(it->second->name);
        continue;
      }
      std::string_view suffix = op.text;
      for (const std::string_view prefix : {"serialize_", "deserialize_"}) {
        if (suffix.starts_with(prefix)) suffix.remove_prefix(prefix.size());
      }
      out.push_back({"call:" + std::string(suffix), op.line});
    }
  }
};

// Extract every codec-parameter function of `file` (writer or reader).
void collect_codec_fns(const Project& project, const SourceFile& file,
                       std::vector<CodecFn>& out) {
  const auto& toks = file.tokens;
  for (const FunctionDef& fn : project.scan_of(file).functions) {
    // Parameter pieces come from the declarator between name and body;
    // re-scan them to find a ByteWriter&/ByteReader& parameter.
    std::size_t open = 0;
    for (std::size_t j = fn.body_begin; j-- > 0;) {
      if (toks[j].is_ident(fn.name) && j + 1 < toks.size() &&
          toks[j + 1].is_punct("(") && toks[j].line == fn.line) {
        open = j + 1;
        break;
      }
    }
    if (open == 0) continue;
    const std::size_t close =
        match_punct(toks, open, "(", ")", toks.size());
    CodecFn cf;
    cf.name = fn.name;
    cf.line = fn.line;
    std::string codec;
    for (const auto& [pb, pe] : arg_ranges(toks, open, close)) {
      const bool writer = piece_mentions(toks, pb, pe, "ByteWriter");
      const bool reader = piece_mentions(toks, pb, pe, "ByteReader");
      if (writer || reader) {
        codec = param_piece_name(toks, pb, pe);
        cf.is_writer = writer;
      }
    }
    if (codec.empty()) continue;
    cf.ops = extract_ops(toks, fn.body_begin, fn.body_end, codec);
    out.push_back(std::move(cf));
  }
}

}  // namespace

void check_serializer_symmetry(const Project& project,
                               const SourceFile& file,
                               std::vector<Diagnostic>& out) {
  if (!file.path.starts_with("src/persist/")) return;

  // Known expansions: codec functions of this file and of every persist
  // file it (transitively) includes.
  std::vector<CodecFn> own;
  collect_codec_fns(project, file, own);
  if (own.empty()) return;
  std::vector<CodecFn> all = own;
  for (const std::string& path : project.include_closure(file)) {
    if (path == file.path || !path.starts_with("src/persist/")) continue;
    const SourceFile* f = project.find(path);
    if (f != nullptr) collect_codec_fns(project, *f, all);
  }
  std::map<std::string_view, const CodecFn*> known;
  for (const CodecFn& cf : all) known.try_emplace(cf.name, &cf);

  // Pair serialize_X / deserialize_X defined in this file, by suffix.
  for (const CodecFn& writer : own) {
    if (!writer.is_writer || !writer.name.starts_with("serialize_")) {
      continue;
    }
    const std::string_view suffix =
        writer.name.substr(std::string_view("serialize_").size());
    const CodecFn* reader = nullptr;
    for (const CodecFn& cf : own) {
      if (!cf.is_writer && cf.name.starts_with("deserialize_") &&
          cf.name.substr(std::string_view("deserialize_").size()) ==
              suffix) {
        reader = &cf;
        break;
      }
    }
    if (reader == nullptr) continue;

    std::vector<FlatOp> writes;
    std::vector<FlatOp> reads;
    Flattener{known, {}}.flatten(writer.ops, writes);
    Flattener{known, {}}.flatten(reader->ops, reads);

    const std::string pair_name = std::string("'").append(writer.name) +
                                  "'/'" + std::string(reader->name) + "'";
    std::size_t diverge = writes.size();
    for (std::size_t k = 0; k < writes.size() && k < reads.size(); ++k) {
      if (writes[k].text != reads[k].text) {
        diverge = k;
        break;
      }
    }
    if (diverge < writes.size() && diverge < reads.size()) {
      out.push_back(
          {file.path, reads[diverge].line, "persist-serializer-symmetry",
           pair_name + " drift at codec op " +
               std::to_string(diverge + 1) + ": writer '" +
               writes[diverge].text + "' (line " +
               std::to_string(writes[diverge].line) + ") vs reader '" +
               reads[diverge].text +
               "' — encode/decode sequences must mirror each other"});
    } else if (writes.size() != reads.size()) {
      out.push_back(
          {file.path, reader->line, "persist-serializer-symmetry",
           pair_name + " drift: writer emits " +
               std::to_string(writes.size()) +
               " codec op(s) but reader consumes " +
               std::to_string(reads.size()) +
               " — encode/decode sequences must mirror each other"});
    }
  }
}

}  // namespace piggyweb::analysis
