/**
 * @file
 * Minimal JSON value model and recursive-descent parser.
 *
 * Just enough JSON for the experiment subsystem's needs: the sweep
 * result schema (docs/sweeps.md) round-trips through it, and the
 * smoke tests use it to assert that every c3d-paper figure's
 * `--json` output is well-formed. No exceptions; parse failures report a
 * position-annotated message.
 */

#ifndef C3DSIM_EXP_JSON_HH
#define C3DSIM_EXP_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace c3d::exp
{

/** A parsed JSON value (tree-owning). */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    JsonValue() = default;

    Kind kind() const { return k; }
    bool isNull() const { return k == Kind::Null; }
    bool isBool() const { return k == Kind::Bool; }
    bool isNumber() const { return k == Kind::Number; }
    bool isString() const { return k == Kind::String; }
    bool isArray() const { return k == Kind::Array; }
    bool isObject() const { return k == Kind::Object; }

    bool boolean() const { return b; }
    double number() const { return num; }

    /**
     * Integer value of a Number. Parsed losslessly from the source
     * token when it is a plain non-negative integer literal (doubles
     * cannot represent every u64 above 2^53); otherwise derived from
     * the double with clamping to [0, UINT64_MAX].
     */
    std::uint64_t u64() const;
    const std::string &string() const { return str; }
    const std::vector<JsonValue> &array() const { return arr; }

    /** Object member by key; nullptr when absent (or not an object). */
    const JsonValue *member(const std::string &key) const;

    /** Ordered object members (preserves document order). */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return obj;
    }

    // ---- construction (used by the parser) ----------------------------
    static JsonValue makeNull();
    static JsonValue makeBool(bool v);
    /** @param token the source literal, for lossless u64 access. */
    static JsonValue makeNumber(double v, std::string token = "");
    static JsonValue makeString(std::string v);
    static JsonValue makeArray(std::vector<JsonValue> v);
    static JsonValue
    makeObject(std::vector<std::pair<std::string, JsonValue>> v);

  private:
    Kind k = Kind::Null;
    bool b = false;
    double num = 0.0;
    std::string numToken;
    std::string str;
    std::vector<JsonValue> arr;
    std::vector<std::pair<std::string, JsonValue>> obj;
};

/**
 * Parse @p text into @p out. Returns false and sets @p error (with a
 * byte offset) on malformed input. Trailing non-whitespace after the
 * top-level value is an error.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string &error);

/** Escape @p s for inclusion in a JSON string literal (no quotes). */
std::string jsonEscape(const std::string &s);

} // namespace c3d::exp

#endif // C3DSIM_EXP_JSON_HH
