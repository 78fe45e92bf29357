// English-like prose generator.
//
// Real text drives the paper's observation that character data is
// heavily skewed ("the character e in English"): a small alphabet,
// spaces every ~5 bytes, newlines every ~70, and strong phrase-level
// repetition within a document (locality). We build text from a
// frequency-weighted common-word pool, with sentence/paragraph
// structure and occasional verbatim repetition of earlier sentences —
// the same document-level self-similarity that produces congruent
// cells in real files.
#include <algorithm>
#include <array>
#include <cstring>
#include <string_view>
#include <vector>

#include "fsgen/generator.hpp"

namespace cksum::fsgen {

namespace {

struct WeightedWord {
  std::string_view word;
  double weight;
};

// Common English words, roughly Zipf-weighted.
constexpr WeightedWord kWords[] = {
    {"the", 50}, {"of", 28}, {"and", 26}, {"to", 25}, {"a", 22},
    {"in", 20}, {"is", 12}, {"it", 11}, {"you", 10}, {"that", 10},
    {"he", 9}, {"was", 9}, {"for", 9}, {"on", 8}, {"are", 8},
    {"with", 7}, {"as", 7}, {"his", 6}, {"they", 6}, {"be", 6},
    {"at", 6}, {"one", 5}, {"have", 5}, {"this", 5}, {"from", 5},
    {"or", 4.5}, {"had", 4.5}, {"by", 4.5}, {"not", 4.4}, {"word", 2},
    {"but", 4}, {"what", 3.5}, {"some", 3.2}, {"we", 3.6}, {"can", 3.2},
    {"out", 3.1}, {"other", 3.1}, {"were", 3}, {"all", 3}, {"there", 2.9},
    {"when", 2.8}, {"up", 2.8}, {"use", 2.6}, {"your", 2.6}, {"how", 2.5},
    {"said", 2.5}, {"an", 2.5}, {"each", 2.4}, {"she", 2.4}, {"which", 2.3},
    {"do", 2.3}, {"their", 2.2}, {"time", 2.2}, {"if", 2.2}, {"will", 2.1},
    {"way", 2}, {"about", 2}, {"many", 1.9}, {"then", 1.9}, {"them", 1.9},
    {"would", 1.8}, {"write", 1.8}, {"like", 1.8}, {"so", 1.8}, {"these", 1.7},
    {"her", 1.7}, {"long", 1.7}, {"make", 1.6}, {"thing", 1.6}, {"see", 1.6},
    {"him", 1.6}, {"two", 1.5}, {"has", 1.5}, {"look", 1.5}, {"more", 1.5},
    {"day", 1.4}, {"could", 1.4}, {"go", 1.4}, {"come", 1.4}, {"did", 1.4},
    {"number", 1.3}, {"sound", 1.3}, {"no", 1.3}, {"most", 1.3}, {"people", 1.3},
    {"my", 1.3}, {"over", 1.3}, {"know", 1.2}, {"water", 1.2}, {"than", 1.2},
    {"call", 1.2}, {"first", 1.2}, {"who", 1.2}, {"may", 1.1}, {"down", 1.1},
    {"side", 1.1}, {"been", 1.1}, {"now", 1.1}, {"find", 1.1}, {"any", 1},
    {"new", 1}, {"work", 1}, {"part", 1}, {"take", 1}, {"get", 1},
    {"place", 1}, {"made", 0.9}, {"live", 0.9}, {"where", 0.9}, {"after", 0.9},
    {"back", 0.9}, {"little", 0.9}, {"only", 0.9}, {"round", 0.8}, {"man", 0.8},
    {"year", 0.8}, {"came", 0.8}, {"show", 0.8}, {"every", 0.8}, {"good", 0.8},
    {"me", 0.8}, {"give", 0.8}, {"our", 0.8}, {"under", 0.7}, {"name", 0.7},
    {"very", 0.7}, {"through", 0.7}, {"just", 0.7}, {"form", 0.7},
    {"sentence", 0.7}, {"great", 0.7}, {"think", 0.7}, {"say", 0.7},
    {"help", 0.6}, {"low", 0.6}, {"line", 0.6}, {"differ", 0.6}, {"turn", 0.6},
    {"cause", 0.6}, {"much", 0.6}, {"mean", 0.6}, {"before", 0.6}, {"move", 0.6},
    {"right", 0.6}, {"boy", 0.5}, {"old", 0.5}, {"too", 0.5}, {"same", 0.5},
    {"tell", 0.5}, {"does", 0.5}, {"set", 0.5}, {"three", 0.5}, {"want", 0.5},
    {"air", 0.5}, {"well", 0.5}, {"also", 0.5}, {"play", 0.5}, {"small", 0.5},
    {"end", 0.5}, {"put", 0.5}, {"home", 0.5}, {"read", 0.5}, {"hand", 0.5},
    {"port", 0.4}, {"large", 0.4}, {"spell", 0.4}, {"add", 0.4}, {"even", 0.4},
    {"land", 0.4}, {"here", 0.4}, {"must", 0.4}, {"big", 0.4}, {"high", 0.4},
    {"such", 0.4}, {"follow", 0.4}, {"act", 0.4}, {"why", 0.4}, {"ask", 0.4},
    {"men", 0.4}, {"change", 0.4}, {"went", 0.4}, {"light", 0.4}, {"kind", 0.4},
    {"off", 0.4}, {"need", 0.4}, {"house", 0.4}, {"picture", 0.4}, {"try", 0.4},
    {"us", 0.4}, {"again", 0.4}, {"animal", 0.4}, {"point", 0.4},
    {"mother", 0.4}, {"world", 0.4}, {"near", 0.4}, {"build", 0.4},
    {"self", 0.4}, {"earth", 0.4}, {"father", 0.4}, {"head", 0.3},
    {"stand", 0.3}, {"own", 0.3}, {"page", 0.3}, {"should", 0.3},
    {"country", 0.3}, {"found", 0.3}, {"answer", 0.3}, {"school", 0.3},
    {"grow", 0.3}, {"study", 0.3}, {"still", 0.3}, {"learn", 0.3},
    {"plant", 0.3}, {"cover", 0.3}, {"food", 0.3}, {"sun", 0.3}, {"four", 0.3},
    {"between", 0.3}, {"state", 0.3}, {"keep", 0.3}, {"eye", 0.3},
    {"never", 0.3}, {"last", 0.3}, {"let", 0.3}, {"thought", 0.3},
    {"city", 0.3}, {"tree", 0.3}, {"cross", 0.3}, {"farm", 0.3}, {"hard", 0.3},
    {"start", 0.3}, {"might", 0.3}, {"story", 0.3}, {"saw", 0.3}, {"far", 0.3},
    {"sea", 0.3}, {"draw", 0.3}, {"left", 0.3}, {"late", 0.3}, {"run", 0.3},
    {"while", 0.3}, {"press", 0.3}, {"close", 0.3}, {"night", 0.3},
    {"real", 0.3}, {"life", 0.3}, {"few", 0.3}, {"north", 0.2}, {"open", 0.2},
    {"seem", 0.2}, {"together", 0.2}, {"next", 0.2}, {"white", 0.2},
    {"children", 0.2}, {"begin", 0.2}, {"got", 0.2}, {"walk", 0.2},
    {"example", 0.2}, {"ease", 0.2}, {"paper", 0.2}, {"group", 0.2},
    {"always", 0.2}, {"music", 0.2}, {"those", 0.2}, {"both", 0.2},
    {"mark", 0.2}, {"often", 0.2}, {"letter", 0.2}, {"until", 0.2},
    {"mile", 0.2}, {"river", 0.2}, {"car", 0.2}, {"feet", 0.2}, {"care", 0.2},
    {"second", 0.2}, {"book", 0.2}, {"carry", 0.2}, {"took", 0.2},
    {"science", 0.2}, {"eat", 0.2}, {"room", 0.2}, {"friend", 0.2},
    {"began", 0.2}, {"idea", 0.2}, {"fish", 0.2}, {"mountain", 0.2},
    {"stop", 0.2}, {"once", 0.2}, {"base", 0.2}, {"hear", 0.2}, {"horse", 0.2},
    {"cut", 0.2}, {"sure", 0.2}, {"watch", 0.2}, {"color", 0.2}, {"face", 0.2},
    {"wood", 0.2}, {"main", 0.2}, {"enough", 0.2}, {"plain", 0.2},
    {"girl", 0.2}, {"usual", 0.2}, {"young", 0.2}, {"ready", 0.2},
    {"above", 0.2}, {"ever", 0.2}, {"red", 0.2}, {"list", 0.2}, {"though", 0.2},
    {"feel", 0.2}, {"talk", 0.2}, {"bird", 0.2}, {"soon", 0.2}, {"body", 0.2},
    {"dog", 0.2}, {"family", 0.2}, {"direct", 0.2}, {"pose", 0.2},
    {"leave", 0.2}, {"song", 0.2}, {"measure", 0.2}, {"door", 0.2},
    {"product", 0.2}, {"black", 0.2}, {"short", 0.2}, {"numeral", 0.2},
    {"class", 0.2}, {"wind", 0.2}, {"question", 0.2}, {"happen", 0.2},
    {"complete", 0.2}, {"ship", 0.2}, {"area", 0.2}, {"half", 0.2},
    {"rock", 0.2}, {"order", 0.2}, {"fire", 0.2}, {"south", 0.2},
    {"problem", 0.2}, {"piece", 0.2}, {"told", 0.2}, {"knew", 0.2},
    {"pass", 0.2}, {"since", 0.2}, {"top", 0.2}, {"whole", 0.2}, {"king", 0.2},
    {"space", 0.2}, {"heard", 0.2}, {"best", 0.2}, {"hour", 0.2},
    {"better", 0.2}, {"true", 0.2}, {"during", 0.2}, {"hundred", 0.2},
    {"five", 0.2}, {"remember", 0.2}, {"step", 0.2}, {"early", 0.2},
    {"hold", 0.2}, {"west", 0.2}, {"ground", 0.2}, {"interest", 0.2},
    {"reach", 0.2}, {"fast", 0.2}, {"verb", 0.2}, {"sing", 0.2},
    {"listen", 0.2}, {"six", 0.2}, {"table", 0.2}, {"travel", 0.2},
    {"less", 0.2}, {"morning", 0.2}, {"ten", 0.2}, {"simple", 0.2},
    {"several", 0.2}, {"vowel", 0.2}, {"toward", 0.2}, {"war", 0.2},
    {"lay", 0.2}, {"against", 0.2}, {"pattern", 0.2}, {"slow", 0.2},
    {"center", 0.2}, {"love", 0.2}, {"person", 0.2}, {"money", 0.2},
    {"serve", 0.2}, {"appear", 0.2}, {"road", 0.2}, {"map", 0.2},
    {"rain", 0.2}, {"rule", 0.2}, {"govern", 0.2}, {"pull", 0.2},
    {"cold", 0.2}, {"notice", 0.2}, {"voice", 0.2}, {"unit", 0.2},
    {"power", 0.2}, {"town", 0.2}, {"fine", 0.2}, {"certain", 0.2},
    {"fly", 0.2}, {"fall", 0.2}, {"lead", 0.2}, {"cry", 0.2}, {"dark", 0.2},
    {"machine", 0.2}, {"note", 0.2}, {"wait", 0.2}, {"plan", 0.2},
    {"figure", 0.2}, {"star", 0.2}, {"box", 0.2}, {"noun", 0.2},
    {"field", 0.2}, {"rest", 0.2}, {"correct", 0.2}, {"able", 0.2},
    {"pound", 0.2}, {"done", 0.2}, {"beauty", 0.2}, {"drive", 0.2},
    {"stood", 0.2}, {"contain", 0.2}, {"front", 0.2}, {"teach", 0.2},
    {"week", 0.2}, {"final", 0.2}, {"gave", 0.2}, {"green", 0.2},
    {"oh", 0.2}, {"quick", 0.2}, {"develop", 0.2}, {"ocean", 0.2},
    {"warm", 0.2}, {"free", 0.2}, {"minute", 0.2}, {"strong", 0.2},
    {"special", 0.2}, {"mind", 0.2}, {"behind", 0.2}, {"clear", 0.2},
    {"tail", 0.2}, {"produce", 0.2}, {"fact", 0.2}, {"street", 0.2},
    {"inch", 0.2}, {"multiply", 0.2}, {"nothing", 0.2}, {"course", 0.2},
    {"stay", 0.2}, {"wheel", 0.2}, {"full", 0.2}, {"force", 0.2},
    {"blue", 0.2}, {"object", 0.2}, {"decide", 0.2}, {"surface", 0.2},
    {"deep", 0.2}, {"moon", 0.2}, {"island", 0.2}, {"foot", 0.2},
    {"system", 0.2}, {"busy", 0.2}, {"test", 0.2}, {"record", 0.2},
    {"boat", 0.2}, {"common", 0.2}, {"gold", 0.2}, {"possible", 0.2},
    {"plane", 0.2}, {"stead", 0.2}, {"dry", 0.2}, {"wonder", 0.2},
    {"laugh", 0.2}, {"thousand", 0.2}, {"ago", 0.2}, {"ran", 0.2},
    {"check", 0.2}, {"game", 0.2}, {"shape", 0.2}, {"equate", 0.2},
    {"hot", 0.2}, {"miss", 0.2}, {"brought", 0.2}, {"heat", 0.2},
    {"snow", 0.2}, {"tire", 0.2}, {"bring", 0.2}, {"yes", 0.2},
    {"distant", 0.2}, {"fill", 0.2}, {"east", 0.2}, {"paint", 0.2},
    {"language", 0.2}, {"among", 0.2},
};

/// Every word fits one 8-byte copy.
constexpr std::size_t kMaxWord = 8;
static_assert([] {
  for (const WeightedWord& w : kWords)
    if (w.word.empty() || w.word.size() > kMaxWord) return false;
  return true;
}());

/// A sentence is 4..14 words, each followed by at most a comma and a
/// space (the last by its end mark instead).
constexpr std::size_t kMaxWords = 14;
constexpr std::size_t kMaxSentence = kMaxWords * (kMaxWord + 2);

/// The word table: draw weights, and each word zero-padded to 8 bytes.
struct Words {
  util::WeightedTable table;
  std::array<std::array<char, kMaxWord>, std::size(kWords)> padded{};
  std::array<std::uint8_t, std::size(kWords)> len{};
};

const Words& words() {
  static const Words w = [] {
    std::vector<double> weights;
    weights.reserve(std::size(kWords));
    for (const auto& entry : kWords) weights.push_back(entry.weight);
    Words out{util::WeightedTable(weights)};
    for (std::size_t i = 0; i < std::size(kWords); ++i) {
      std::copy(kWords[i].word.begin(), kWords[i].word.end(),
                out.padded[i].begin());
      out.len[i] = static_cast<std::uint8_t>(kWords[i].word.size());
    }
    return out;
  }();
  return w;
}

/// One sentence as emitted, with the length of each space-separated
/// token (a word with its comma or end mark), so wrapping it needs no
/// scan. kMaxSentence holds the longest sentence and the last word's
/// 8-byte copy.
struct Sentence {
  std::array<char, kMaxSentence> text;
  std::array<std::uint8_t, kMaxWords> token;
  std::uint8_t len;
  std::uint8_t words;
};

/// Builds a new sentence into `s`: the draws, in order, of the
/// sentence the generator has always made.
void build_sentence(util::Rng& rng, const Words& w, Sentence& s) {
  const std::size_t n = static_cast<std::size_t>(rng.between(4, kMaxWords));
  char* p = s.text.data();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = w.table.pick(rng);
    char* const start = p;
    std::memcpy(p, w.padded[k].data(), kMaxWord);
    if (i == 0) p[0] = static_cast<char>(p[0] - 'a' + 'A');
    p += w.len[k];
    if (i + 2 < n && rng.chance(0.07)) *p++ = ',';
    s.token[i] = static_cast<std::uint8_t>(p - start);
    *p++ = ' ';
  }
  // The end mark takes the last space, and belongs to the last token.
  p[-1] = rng.chance(0.1) ? '?' : '.';
  s.token[n - 1] += 1;
  s.len = static_cast<std::uint8_t>(p - s.text.data());
  s.words = static_cast<std::uint8_t>(n);
}

}  // namespace

const util::WeightedTable& text_word_table() { return words().table; }

util::Bytes generate_text(util::Rng& rng, std::size_t approx_size) {
  const Words& w = words();

  // A sentence starts only below approx_size, and adds at most a
  // separator, itself and a paragraph break.
  util::Bytes out(approx_size + 1 + kMaxSentence + 2);
  std::uint8_t* const o = out.data();
  std::size_t pos = 0;
  std::size_t line_len = 0;

  // Remember recent sentences for verbatim repetition (quotes,
  // boilerplate, repeated headings — a strong locality source).
  // recent[] indexes the slots; a new sentence is built in the spare
  // slot, which then joins recent[] (taking the place of the one it
  // replaces, which becomes the spare), so no sentence is copied.
  constexpr std::size_t kRecent = 32;
  std::array<Sentence, kRecent + 1> slots;
  std::array<std::uint8_t, kRecent> recent;
  std::size_t nrecent = 0;
  std::uint8_t spare = 0;

  while (pos < approx_size) {
    // Paragraph of 2..7 sentences.
    const std::size_t sentences = static_cast<std::size_t>(rng.between(2, 7));
    for (std::size_t s = 0; s < sentences && pos < approx_size; ++s) {
      std::size_t at;
      if (nrecent > 0 && rng.chance(0.08)) {
        // Repeat an earlier sentence verbatim.
        at = recent[rng.below(nrecent)];
      } else {
        build_sentence(rng, w, slots[spare]);
        at = spare;
        if (nrecent < kRecent) {
          recent[nrecent++] = spare;
          spare = static_cast<std::uint8_t>(nrecent);
        } else {
          std::swap(recent[rng.below(nrecent)], spare);
        }
      }
      const Sentence& sentence = slots[at];
      // Wrap at ~70 columns like formatted prose: a word follows a
      // space when it fits on the line, else starts the next line. The
      // sentence goes out in one copy; the spaces where a line breaks
      // then become newlines.
      const std::size_t first = sentence.token[0];
      if (line_len > 0 && line_len + first + 1 > 70) {
        o[pos++] = '\n';
        line_len = 0;
      } else if (line_len > 0) {
        o[pos++] = ' ';
        ++line_len;
      }
      std::memcpy(o + pos, sentence.text.data(), sentence.len);
      std::size_t space = pos + first;
      line_len += first;
      for (std::size_t i = 1; i < sentence.words; ++i) {
        const std::size_t wlen = sentence.token[i];
        if (line_len + wlen + 1 > 70) {
          o[space] = '\n';
          line_len = wlen;
        } else {
          line_len += wlen + 1;
        }
        space += wlen + 1;
      }
      pos += sentence.len;
    }
    o[pos++] = '\n';
    o[pos++] = '\n';
    line_len = 0;
  }
  out.resize(pos);
  return out;
}

}  // namespace cksum::fsgen
