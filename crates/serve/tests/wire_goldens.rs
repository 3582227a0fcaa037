//! Wire goldens: the parser's exact answer to each request line. A row
//! pins the `accepted` record's cache key (hex), `ok` for a kind that has
//! no key, or the exact `error` record the service would stream back.
//!
//! The rows were recorded before parsing and the cache key moved onto one
//! field walk per request spec; a byte that moves here is a change to the
//! wire contract.
//!
//! Coverage: every kind with all defaults and with its defaults spelled
//! out, each field moved off its default one at a time, every alias
//! spelling, the string and array forms of a utility list, the `largen`
//! weight normalization, and malformed input (missing and mistyped
//! fields, out-of-range integers, nested batches, schema versions,
//! unknown fields, and two bad fields in one line, where the field read
//! first wins).

use greednet_serve::request::error_record;
use greednet_serve::{key_hex, Request};

/// The parser's answer to one line, in the form the rows pin.
fn answer(line: &str) -> String {
    match Request::parse_line(line) {
        Ok(req) => req
            .kind
            .cache_key()
            .map_or_else(|| "ok".to_string(), key_hex),
        Err(e) => error_record(None, &e),
    }
}

/// `(request line, answer)`, one row per line.
#[rustfmt::skip]
const ROWS: &[(&str, &str)] = &[
    // every kind with all defaults
    (r#"{"kind":"nash"}"#, "00df36bb180264cdcd7c242e11e228f9"),
    (r#"{"kind":"simulate","rates":[0.2,0.1]}"#, "5adf255ce8c306ecad76b2e0c1ded28a"),
    (r#"{"kind":"table","rates":[0.05,0.1,0.2]}"#, "0e97fe9a43558c8fea161c21575cac15"),
    (r#"{"kind":"protect"}"#, "c6f897b006e3b841ae604a4330707715"),
    (r#"{"kind":"exp","exp":"t1"}"#, "e6320c75de9575714bc1305c7aa68dc9"),
    (r#"{"kind":"largen"}"#, "41a82f531c2f1986d295266ed507580c"),
    (r#"{"kind":"batch","requests":[]}"#, "ok"),
    (r#"{"kind":"batch","requests":[{"kind":"table","rates":[0.1]},{"kind":"protect"}]}"#, "ok"),
    (r#"{"kind":"stats"}"#, "ok"),
    (r#"{"kind":"shutdown"}"#, "ok"),
    // ... and with its defaults spelled out
    (r#"{"kind":"nash","discipline":"fs","users":"log:0.5,1.0;log:1.0,1.0;linear:1.0,0.3"}"#, "00df36bb180264cdcd7c242e11e228f9"),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"discipline":"fs","horizon":100000,"warmup":10000,"windows":32,"seed":1,"service":"M"}"#, "5adf255ce8c306ecad76b2e0c1ded28a"),
    (r#"{"kind":"protect","n":4,"victim":0.1,"discipline":"fs"}"#, "c6f897b006e3b841ae604a4330707715"),
    (r#"{"kind":"exp","exp":"t1","seed":0,"threads":1,"smoke":false}"#, "e6320c75de9575714bc1305c7aa68dc9"),
    (r#"{"kind":"largen","discipline":"fs","n":10000,"classes":"log:0.6,1.0;log:0.5,1.0;log:0.4,1.0","weights":[1,1,1],"seed":1,"threads":1}"#, "41a82f531c2f1986d295266ed507580c"),
    // the envelope: the client id and schema version 1 never move the key
    (r#"{"kind":"nash","id":"client-7"}"#, "00df36bb180264cdcd7c242e11e228f9"),
    (r#"{"kind":"nash","v":1}"#, "00df36bb180264cdcd7c242e11e228f9"),
    (r#"{"id":"x","v":1,"kind":"nash"}"#, "00df36bb180264cdcd7c242e11e228f9"),
    // one field off its default: nash
    (r#"{"kind":"nash","discipline":"fifo"}"#, "212fe6f3477269d31341e169f722a80c"),
    (r#"{"kind":"nash","discipline":"sp"}"#, "1aa26d8a865c0602fa9486789189efad"),
    (r#"{"kind":"nash","users":"log:0.5,1.0"}"#, "2d7247b537923c3c6d171af0404c5c4e"),
    (r#"{"kind":"nash","users":"linear:1.0,0.4"}"#, "9281abe7c879c574819a59f0ad56e466"),
    (r#"{"kind":"nash","users":"zap:1,1"}"#, "577d385410c57dbaddd22871a1c28d80"),
    // simulate
    (r#"{"kind":"simulate","rates":[0.3,0.1]}"#, "9d00ed9649a5bb1daf1d38cabf224cb9"),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"discipline":"fifo"}"#, "a7cd07643c8fb659d9f8e1058ad3e089"),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"discipline":"lifo"}"#, "c21f50955aa151fa748a4590ed859237"),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"discipline":"ps"}"#, "b10140f75a0385034c994afbfe9957d4"),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"discipline":"sp"}"#, "51e77ce2b7b6730a69081827f1bdabe6"),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"discipline":"sfq"}"#, "be508d667f286fca22f790352cb65572"),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"horizon":5000}"#, "0c9c5c9c8b1d767ffec2d33cacac0ebb"),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"horizon":5000,"warmup":500}"#, "0c9c5c9c8b1d767ffec2d33cacac0ebb"),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"warmup":500}"#, "4df65782e9b62ddbca19138151366dff"),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"warmup":0}"#, "8ac305b4d26d4c716e1b79afcf38ffdc"),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"windows":16}"#, "46fe12d788d5367468bcd86411081505"),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"seed":2}"#, "dde3fb46762bc8734d871fbd34c7e343"),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"service":"D"}"#, "c803d6e7b072db9bb24fd086c37d721b"),
    // table
    (r#"{"kind":"table","rates":[0.1]}"#, "8dfb351bdee4b9ec757eec45ddcfc2a3"),
    // protect
    (r#"{"kind":"protect","n":5}"#, "16ac52c6f4e446ad34cae5bac0585161"),
    (r#"{"kind":"protect","victim":0.2}"#, "0b19d2d9527924b4ac5f8f08988f9ea4"),
    (r#"{"kind":"protect","victim":-0.0}"#, "03906d327e259bb242056385df6beaf5"),
    (r#"{"kind":"protect","victim":0.0}"#, "03906d327e259bb242056385df6beaf5"),
    (r#"{"kind":"protect","discipline":"fifo"}"#, "3495c01fa5b7ced66a6b755e10ed6526"),
    (r#"{"kind":"protect","discipline":"sp"}"#, "2d55640652bf722db72a6ea30fad04f1"),
    // exp
    (r#"{"kind":"exp","exp":"e1"}"#, "489206f6635558feb98e3a9a5ca9a3ea"),
    (r#"{"kind":"exp","exp":"t1","seed":3}"#, "78ed3f5381544ec4cad1747c0fafb2cd"),
    (r#"{"kind":"exp","exp":"t1","threads":2}"#, "06ceb51d7cbaac6f5573c06b193ea8ee"),
    // `0` runs on one worker, so it keys as `1`.
    (r#"{"kind":"exp","exp":"t1","threads":0}"#, "e6320c75de9575714bc1305c7aa68dc9"),
    (r#"{"kind":"exp","exp":"t1","smoke":true}"#, "f412015ca46963af1c5f4bb4c1ce8867"),
    (r#"{"kind":"exp","exp":"t1","smoke":true,"threads":1}"#, "f412015ca46963af1c5f4bb4c1ce8867"),
    // Same payload as `"threads":1`, so the same key.
    (r#"{"kind":"exp","exp":"t1","smoke":true,"threads":0}"#, "f412015ca46963af1c5f4bb4c1ce8867"),
    // largen
    (r#"{"kind":"largen","discipline":"fifo"}"#, "c11ad006d53247cc2a7d625ae3eabc81"),
    (r#"{"kind":"largen","discipline":"sfq"}"#, "0d0b4dde2d7cebfad00087f2b7dd012c"),
    (r#"{"kind":"largen","n":20000}"#, "de7130e73b280c5156bf405d75a8d663"),
    (r#"{"kind":"largen","n":0}"#, "37661e23e0342242d241ca78e7e3a522"),
    (r#"{"kind":"largen","classes":"log:0.6,1.0"}"#, "586d52b9244948722d99f7568203d70f"),
    (r#"{"kind":"largen","weights":[1,2,3]}"#, "8ee7edff595684dcd4e0e077fbad11a1"),
    (r#"{"kind":"largen","seed":2}"#, "0a3f72922d3cea9360985d7c1d143cfb"),
    (r#"{"kind":"largen","threads":4}"#, "41a82f531c2f1986d295266ed507580c"),
    (r#"{"kind":"largen","threads":0}"#, "41a82f531c2f1986d295266ed507580c"),
    // aliases
    (r#"{"kind":"nash","discipline":"fairshare"}"#, "00df36bb180264cdcd7c242e11e228f9"),
    (r#"{"kind":"nash","discipline":"fair-share"}"#, "00df36bb180264cdcd7c242e11e228f9"),
    (r#"{"kind":"nash","discipline":"serial"}"#, "1aa26d8a865c0602fa9486789189efad"),
    (r#"{"kind":"nash","discipline":"fq"}"#, "7c4ed9bcdaa27eea29d5497a3999e58f"),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"discipline":"fairshare"}"#, "5adf255ce8c306ecad76b2e0c1ded28a"),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"discipline":"fair-share"}"#, "5adf255ce8c306ecad76b2e0c1ded28a"),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"discipline":"serial"}"#, "51e77ce2b7b6730a69081827f1bdabe6"),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"discipline":"fq"}"#, "be508d667f286fca22f790352cb65572"),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"service":"m"}"#, "5adf255ce8c306ecad76b2e0c1ded28a"),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"service":"d"}"#, "c803d6e7b072db9bb24fd086c37d721b"),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"service":"e4"}"#, "1faf34ffc173634aaaafd87b66666f07"),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"service":"E4"}"#, "1faf34ffc173634aaaafd87b66666f07"),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"service":"H2:4"}"#, "861bba87a5b7a007990c5fcb6f9ee175"),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"service":"H2:4.0"}"#, "861bba87a5b7a007990c5fcb6f9ee175"),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"service":"h2:4"}"#, "861bba87a5b7a007990c5fcb6f9ee175"),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"service":"Z9"}"#, "0ca21fffe967c566d8eb769c69087953"),
    (r#"{"kind":"protect","discipline":"fairshare"}"#, "c6f897b006e3b841ae604a4330707715"),
    (r#"{"kind":"protect","discipline":"serial"}"#, "2d55640652bf722db72a6ea30fad04f1"),
    (r#"{"kind":"largen","discipline":"fairshare"}"#, "41a82f531c2f1986d295266ed507580c"),
    (r#"{"kind":"largen","discipline":"fair-share"}"#, "41a82f531c2f1986d295266ed507580c"),
    (r#"{"kind":"largen","discipline":"fq"}"#, "0d0b4dde2d7cebfad00087f2b7dd012c"),
    (r#"{"kind":"largen","discipline":"zap"}"#, "6453603146c30c02ced0e38e1e749c7d"),
    // users / classes: string and array forms
    (r#"{"kind":"nash","users":"log:0.5,1.0;linear:1.0,0.4"}"#, "d482648e33f89446c0e62c9516c701eb"),
    (r#"{"kind":"nash","users":[{"family":"log","a":0.5,"b":1.0},{"family":"linear","a":1.0,"b":0.4}]}"#, "d482648e33f89446c0e62c9516c701eb"),
    (r#"{"kind":"nash","users":"LOG:0.5,1.0; linear:1.0,0.4"}"#, "d482648e33f89446c0e62c9516c701eb"),
    // The array form normalizes families like the string form.
    (r#"{"kind":"nash","users":[{"family":"LOG","a":0.5,"b":1.0},{"family":"linear","a":1.0,"b":0.4}]}"#, "d482648e33f89446c0e62c9516c701eb"),
    (r#"{"kind":"nash","users":[{"family":" Log ","a":0.5,"b":1.0},{"family":"linear","a":1.0,"b":0.4}]}"#, "d482648e33f89446c0e62c9516c701eb"),
    (r#"{"kind":"nash","users":[{"b":1.0,"a":0.5,"family":"log"},{"family":"linear","a":1.0,"b":0.4}]}"#, "d482648e33f89446c0e62c9516c701eb"),
    (r#"{"kind":"largen","classes":"log:0.6,1.0;log:0.4,1.0"}"#, "36a43877527327019b88c47defca1b9d"),
    (r#"{"kind":"largen","classes":[{"family":"log","a":0.6,"b":1.0},{"family":"log","a":0.4,"b":1.0}]}"#, "36a43877527327019b88c47defca1b9d"),
    (r#"{"kind":"largen","classes":[{"family":"LOG","a":0.6,"b":1.0},{"family":"log","a":0.4,"b":1.0}]}"#, "36a43877527327019b88c47defca1b9d"),
    // largen weights
    (r#"{"kind":"largen","weights":[1,1,1]}"#, "41a82f531c2f1986d295266ed507580c"),
    (r#"{"kind":"largen","weights":[2,2,2]}"#, "41a82f531c2f1986d295266ed507580c"),
    (r#"{"kind":"largen","weights":[]}"#, "41a82f531c2f1986d295266ed507580c"),
    (r#"{"kind":"largen","weights":[1,1]}"#, "6f6c2eb0de5cf5cc4775be5aaf1416ba"),
    (r#"{"kind":"largen","classes":"log:0.6,1.0;log:0.4,1.0","weights":[1e308,1e308]}"#, "912fe83cc1b21f6cdf28a0e61cdd0d45"),
    (r#"{"kind":"largen","weights":[1e308,1e308,1e308]}"#, "db888fc66522d0918eef84df10ed6da2"),
    (r#"{"kind":"largen","discipline":"sfq","n":50000,"classes":"log:0.6,1.0;log:0.4,1.0","weights":[3,1],"seed":7}"#, "3fcc42ba5a90e038e9129d14df4e562b"),
    (r#"{"kind":"largen","discipline":"fq","n":50000,"classes":[{"family":"log","a":0.6,"b":1.0},{"family":"log","a":0.4,"b":1.0}],"weights":[0.75,0.25],"seed":7,"threads":4}"#, "3fcc42ba5a90e038e9129d14df4e562b"),
    // malformed: not a request object
    ("{", r#"{"type":"error","id":null,"error":"parse","message":"parse error: at byte 1: expected '\"'"}"#),
    ("nope", r#"{"type":"error","id":null,"error":"parse","message":"parse error: at byte 0: unexpected character"}"#),
    ("[1,2]", r#"{"type":"error","id":null,"error":"parse","message":"parse error: request must be a JSON object"}"#),
    (r#""nash""#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: request must be a JSON object"}"#),
    (r#"{"kind":"nash"} x"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: at byte 16: trailing content after JSON value"}"#),
    ("{}", r#"{"type":"error","id":null,"error":"parse","message":"parse error: request needs a \"kind\" field (nash/simulate/table/protect/exp/largen/batch/stats/shutdown)"}"#),
    (r#"{"id":"a"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: request needs a \"kind\" field (nash/simulate/table/protect/exp/largen/batch/stats/shutdown)"}"#),
    (r#"{"kind":5}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"kind\" must be a string"}"#),
    (r#"{"kind":"zap"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: unknown request kind \"zap\" (use nash/simulate/table/protect/exp/largen/batch/stats/shutdown)"}"#),
    // missing required fields
    (r#"{"kind":"simulate"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: this request kind requires a \"rates\" array"}"#),
    (r#"{"kind":"table"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: this request kind requires a \"rates\" array"}"#),
    (r#"{"kind":"exp"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: exp requests need an \"exp\" id (e.g. \"t1\")"}"#),
    // batches
    (r#"{"kind":"batch"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: batch requests need a \"requests\" array"}"#),
    (r#"{"kind":"batch","requests":{}}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: batch requests need a \"requests\" array"}"#),
    (r#"{"kind":"batch","requests":[{"kind":"batch","requests":[]}]}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: batch requests do not nest"}"#),
    (r#"{"kind":"batch","requests":[{"kind":"table"}]}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: this request kind requires a \"rates\" array"}"#),
    (r#"{"kind":"batch","requests":[5]}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: request must be a JSON object"}"#),
    // schema version
    (r#"{"kind":"nash","v":2}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"unsupported schema version 2 (this build speaks v=1)"}"#),
    (r#"{"kind":"nash","v":0}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"unsupported schema version 0 (this build speaks v=1)"}"#),
    (r#"{"kind":"nash","v":1.5}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"\"v\" must be a non-negative integer below 2^53"}"#),
    (r#"{"kind":"nash","v":"1"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"v\" must be a number"}"#),
    (r#"{"kind":"zap","v":2}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"unsupported schema version 2 (this build speaks v=1)"}"#),
    (r#"{"kind":"batch","requests":[{"kind":"stats","v":7}]}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"unsupported schema version 7 (this build speaks v=1)"}"#),
    // unknown and duplicate fields
    (r#"{"kind":"table","rates":[0.1],"ratez":[0.1]}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: unknown field \"ratez\""}"#),
    (r#"{"kind":"table","rates":[0.1],"rates":[0.2]}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: at byte 37: duplicate object key \"rates\" (ambiguous under the canonical hash)"}"#),
    (r#"{"kind":"stats","extra":1}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: unknown field \"extra\""}"#),
    (r#"{"kind":"largen","threads":2,"thread":2}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: unknown field \"thread\""}"#),
    // wrong types and ranges: envelope
    (r#"{"kind":"nash","id":5}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"id\" must be a string"}"#),
    // nash
    (r#"{"kind":"nash","discipline":1}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"discipline\" must be a string"}"#),
    (r#"{"kind":"nash","users":5}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"users\" must be a \"family:a,b;...\" string or an array of {family,a,b} objects"}"#),
    (r#"{"kind":"nash","users":[]}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: at least one utility is required"}"#),
    (r#"{"kind":"nash","users":""}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: bad utility '' (expected family:a,b)"}"#),
    (r#"{"kind":"nash","users":"log"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: bad utility 'log' (expected family:a,b)"}"#),
    (r#"{"kind":"nash","users":"log:1"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: bad parameters in 'log:1' (expected a,b)"}"#),
    (r#"{"kind":"nash","users":"log:a,b"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: bad numbers in 'log:a,b'"}"#),
    (r#"{"kind":"nash","users":[5]}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: each user must be a {family,a,b} object"}"#),
    (r#"{"kind":"nash","users":[{"family":"log","a":1}]}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: user objects need \"b\""}"#),
    (r#"{"kind":"nash","users":[{"a":1,"b":1}]}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: user objects need a \"family\""}"#),
    (r#"{"kind":"nash","users":[{"family":"log","b":1}]}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: user objects need \"a\""}"#),
    (r#"{"kind":"nash","users":[{"family":1,"a":1,"b":1}]}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"family\" must be a string"}"#),
    (r#"{"kind":"nash","users":[{"family":"log","a":"1","b":1}]}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"a\" must be a number"}"#),
    (r#"{"kind":"nash","users":[{"family":"log","a":1,"b":1,"c":2}]}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: unknown field \"c\""}"#),
    // simulate
    (r#"{"kind":"simulate","rates":"x"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"rates\" must be an array of numbers"}"#),
    (r#"{"kind":"simulate","rates":[]}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"\"rates\" must not be empty"}"#),
    (r#"{"kind":"simulate","rates":[-0.1]}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"\"rates\" entries must be finite numbers >= 0"}"#),
    (r#"{"kind":"simulate","rates":["a"]}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"\"rates\" entries must be finite numbers >= 0"}"#),
    (r#"{"kind":"simulate","rates":[0.1,null]}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"\"rates\" entries must be finite numbers >= 0"}"#),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"discipline":5}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"discipline\" must be a string"}"#),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"horizon":"x"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"horizon\" must be a number"}"#),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"warmup":"x"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"warmup\" must be a number"}"#),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"windows":"x"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"windows\" must be a number"}"#),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"windows":-1}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"\"windows\" must be a non-negative integer below 2^53"}"#),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"windows":2.5}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"\"windows\" must be a non-negative integer below 2^53"}"#),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"seed":"x"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"seed\" must be a number"}"#),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"seed":-1}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"\"seed\" must be a non-negative integer below 2^53"}"#),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"seed":1.5}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"\"seed\" must be a non-negative integer below 2^53"}"#),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"seed":9007199254740992}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"\"seed\" must be a non-negative integer below 2^53"}"#),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"seed":9007199254740991}"#, "c0d5e32b8d25938f783f645c9f460bcb"),
    (r#"{"kind":"simulate","rates":[0.2,0.1],"service":5}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"service\" must be a string"}"#),
    // table
    (r#"{"kind":"table","rates":{}}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"rates\" must be an array of numbers"}"#),
    // protect
    (r#"{"kind":"protect","n":"4"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"n\" must be a number"}"#),
    (r#"{"kind":"protect","n":-1}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"\"n\" must be a non-negative integer below 2^53"}"#),
    (r#"{"kind":"protect","n":4.5}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"\"n\" must be a non-negative integer below 2^53"}"#),
    (r#"{"kind":"protect","victim":"x"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"victim\" must be a number"}"#),
    (r#"{"kind":"protect","discipline":true}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"discipline\" must be a string"}"#),
    // exp
    (r#"{"kind":"exp","exp":5}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"exp\" must be a string"}"#),
    (r#"{"kind":"exp","exp":"t1","seed":"x"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"seed\" must be a number"}"#),
    (r#"{"kind":"exp","exp":"t1","seed":-1}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"\"seed\" must be a non-negative integer below 2^53"}"#),
    (r#"{"kind":"exp","exp":"t1","seed":1.5}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"\"seed\" must be a non-negative integer below 2^53"}"#),
    (r#"{"kind":"exp","exp":"t1","threads":-1}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"\"threads\" must be a non-negative integer below 2^53"}"#),
    (r#"{"kind":"exp","exp":"t1","threads":1.5}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"\"threads\" must be a non-negative integer below 2^53"}"#),
    (r#"{"kind":"exp","exp":"t1","smoke":"yes"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"smoke\" must be a boolean"}"#),
    (r#"{"kind":"exp","exp":"t1","smoke":1}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"smoke\" must be a boolean"}"#),
    // largen
    (r#"{"kind":"largen","discipline":5}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"discipline\" must be a string"}"#),
    (r#"{"kind":"largen","n":"x"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"n\" must be a number"}"#),
    (r#"{"kind":"largen","n":-1}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"\"n\" must be a non-negative integer below 2^53"}"#),
    (r#"{"kind":"largen","n":1.5}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"\"n\" must be a non-negative integer below 2^53"}"#),
    (r#"{"kind":"largen","classes":5}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"classes\" must be a \"family:a,b;...\" string or an array of {family,a,b} objects"}"#),
    (r#"{"kind":"largen","classes":[]}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: at least one utility is required"}"#),
    (r#"{"kind":"largen","weights":"x"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"weights\" must be an array of numbers"}"#),
    (r#"{"kind":"largen","weights":[0]}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"\"weights\" entries must be finite numbers > 0"}"#),
    (r#"{"kind":"largen","weights":[-1]}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"\"weights\" entries must be finite numbers > 0"}"#),
    (r#"{"kind":"largen","weights":["a"]}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"\"weights\" entries must be finite numbers > 0"}"#),
    (r#"{"kind":"largen","seed":"x"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"seed\" must be a number"}"#),
    (r#"{"kind":"largen","threads":"x"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"threads\" must be a number"}"#),
    (r#"{"kind":"largen","threads":-1}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"\"threads\" must be a non-negative integer below 2^53"}"#),
    // two bad fields: the first in walk order wins
    (r#"{"kind":"simulate","rates":"x","horizon":"y"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"rates\" must be an array of numbers"}"#),
    (r#"{"kind":"simulate","horizon":"y","rates":"x"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"rates\" must be an array of numbers"}"#),
    (r#"{"kind":"simulate","rates":[0.1],"seed":-1,"horizon":"y"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"horizon\" must be a number"}"#),
    (r#"{"kind":"largen","n":-1,"seed":"x"}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"\"n\" must be a non-negative integer below 2^53"}"#),
    (r#"{"kind":"largen","threads":"x","weights":"y"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"weights\" must be an array of numbers"}"#),
    (r#"{"kind":"protect","discipline":5,"n":"x"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"n\" must be a number"}"#),
    (r#"{"kind":"exp","smoke":"x"}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: exp requests need an \"exp\" id (e.g. \"t1\")"}"#),
    (r#"{"kind":"table","rates":[0.1],"ratez":1,"v":2}"#, r#"{"type":"error","id":null,"error":"bad_request","message":"unsupported schema version 2 (this build speaks v=1)"}"#),
    (r#"{"kind":"nash","users":5,"bogus":1}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"users\" must be a \"family:a,b;...\" string or an array of {family,a,b} objects"}"#),
    (r#"{"kind":"nash","id":5,"v":2}"#, r#"{"type":"error","id":null,"error":"parse","message":"parse error: \"id\" must be a string"}"#),
];

#[test]
fn every_request_line_gets_its_recorded_answer() {
    let moved: Vec<String> = ROWS
        .iter()
        .filter_map(|&(line, want)| {
            let got = answer(line);
            (got != want).then(|| format!("{line}\n  want {want}\n  got  {got}"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} rows moved:\n{}",
        moved.len(),
        ROWS.len(),
        moved.join("\n")
    );
}
