"""Compile trending-filter specs into platform search-query strings.

The canonical operator order is min_faves, filter:has_engagement, lang; the
first two drop out when disabled, lang is always present.
"""

from tla import LanguageCode, QuerySpec, compile_query

print("Default spec per language (9000 likes, engagement required):")
for lang in (LanguageCode.EN, LanguageCode.HI, LanguageCode.JA, LanguageCode.UR):
    spec = QuerySpec(language=lang)
    print(f"  {lang.display_name:12s} -> {compile_query(spec)}")

print()
print("Lowering the threshold for a low-volume language:")
relaxed = QuerySpec(language=LanguageCode.UR, min_faves=500)
print(f"  {compile_query(relaxed)}")

print()
print("All optional operators disabled leaves just the language filter:")
bare = QuerySpec(language=LanguageCode.TH, min_faves=0, has_engagement=False)
print(f"  {compile_query(bare)}")
