"""Ingest an offline JSONL tweet export.

Ingestion validates every record (ids, text length, counts) and yields each
with its line number, which every error carries too.  The like threshold and
the engagement rule are search operators (see demo 01), so an export that a
compiled query collected holds only tweets that meet them.
"""

import io

from tla import LanguageCode, QuerySpec, TlaError, compile_query, read_jsonl

EXPORT = """\
{"id":"101","text":"grand opening of the river market","lang":"en","likeCount":9100,"replyCount":4}
{"id":"103","text":"el mercado abre el sábado","lang":"es","likeCount":12500,"replyCount":9}
{"id":"105","text":"小さな鳥が橋に集まる","lang":"ja","likeCount":9800,"replyCount":2}
"""

print(f"collected with: {compile_query(QuerySpec(language=LanguageCode.EN))} (and the other languages)")
records = list(read_jsonl(io.StringIO(EXPORT)))
print(f"ingested {len(records)} tweets")
for line, t in records:
    print(f"  line {line}: {t.id}: lang={t.lang_hint and t.lang_hint.value} "
          f"likes={t.like_count} replies={t.reply_count}")

print()
print("A bad line is an error naming its line, or skipped on request:")
bad = EXPORT + '{"id":"106","likeCount":5}\n'
try:
    list(read_jsonl(io.StringIO(bad)))
except TlaError as exc:
    print(f"  {exc}")
kept = [t.id for _, t in read_jsonl(io.StringIO(bad), skip_bad_lines=True)]
print(f"  skip_bad_lines keeps {kept}")
