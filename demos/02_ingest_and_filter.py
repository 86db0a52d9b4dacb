"""Ingest an offline JSONL tweet export and apply the trending filter.

Ingestion validates every record (ids, text length, counts) and yields each
with its line number, which every error carries too; the filter keeps liked, replied-to tweets up to the
result cap, preserving input order.
"""

import io

from tla import LanguageCode, QuerySpec, filter_trending, read_jsonl

EXPORT = """\
{"id":"101","text":"grand opening of the river market","lang":"en","likeCount":9100,"replyCount":4}
{"id":"102","text":"rainy tuesday","lang":"en","likeCount":87,"replyCount":0}
{"id":"103","text":"el mercado abre el sábado","lang":"es","likeCount":12500,"replyCount":9}
{"id":"104","text":"no replies yet on this one","lang":"en","likeCount":20000}
{"id":"105","text":"小さな鳥が橋に集まる","lang":"ja","likeCount":9800,"replyCount":2}
"""

records = list(read_jsonl(io.StringIO(EXPORT)))
print(f"ingested {len(records)} tweets")
for line, t in records:
    print(f"  line {line}: {t.id}: lang={t.lang_hint and t.lang_hint.value} "
          f"likes={t.like_count} replies={t.reply_count}")
tweets = [t for _, t in records]

spec = QuerySpec(language=LanguageCode.EN, min_faves=9000, max_results=500)
trending = filter_trending(tweets, spec)
print()
print("trending (>= 9000 likes, at least one reply, capped at 500):")
for t in trending:
    print(f"  {t.id}: {t.text}")
print("(102 fails the like threshold; 104 has no replies; language is a")
print(" query-time operator, so the offline filter keeps 105)")
