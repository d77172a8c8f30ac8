// Untyped / semistructured documents (paper Section 3.2): the universal
// type `AnyElement = ~[(AnyElement | AnyScalar)*]` accepts any element-only
// document and maps to a STORED-style overflow relation. This example
// shreds an arbitrary document nobody wrote a schema for, shows the
// resulting rows, and reconstructs the document from them.
//
//   ./examples/untyped_documents
#include <cstdio>

#include "mapping/mapping.h"
#include "pschema/pschema.h"
#include "storage/reconstruct.h"
#include "storage/shredder.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xschema/schema_parser.h"

using namespace legodb;

int main() {
  // The universal schema for untyped XML (Section 3.2).
  auto schema = xs::ParseSchema(R"(
    type Root = doc[ AnyElement* ]
    type AnyElement = ~[ (AnyElement | AnyScalar)* ]
    type AnyScalar = String
  )");
  if (!schema.ok()) return 1;
  auto mapping = map::MapSchema(ps::Normalize(schema.value()));
  if (!mapping.ok()) {
    std::fprintf(stderr, "%s\n", mapping.status().ToString().c_str());
    return 1;
  }
  std::printf("=== overflow configuration for untyped XML ===\n%s\n",
              mapping->catalog().ToDdl().c_str());

  // Note: the universal type covers element content only; an attribute
  // would (correctly) be rejected by the shredder, as by the validator.
  const char* text = R"(
    <doc>
      <order>
        <customer><name>Ada</name><city>London</city></customer>
        <lines><line><sku>A-1</sku><qty>2</qty></line>
               <line><sku>B-9</sku><qty>1</qty></line></lines>
      </order>
      <memo>ship fast</memo>
    </doc>)";
  auto doc = xml::ParseDocument(text);
  if (!doc.ok()) return 1;
  store::Database db(mapping->catalog());
  Status st = store::ShredDocument(doc.value(), mapping.value(), &db);
  if (!st.ok()) {
    std::fprintf(stderr, "shred: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("shredded into:\n");
  for (const auto& name : db.table_names()) {
    std::printf("  %-12s %3zu rows\n", name.c_str(),
                db.GetTable(name).row_count());
  }
  const store::StoredTable& any = db.GetTable("AnyElement");
  std::printf("\nAnyElement rows (tag, parent):\n");
  int tilde = any.meta().ColumnIndex("tilde");
  int fk_any = any.meta().ColumnIndex("parent_AnyElement");
  for (size_t i = 0; i < any.row_count(); ++i) {
    auto row = any.ReadRow(i);
    if (!row.ok()) return 1;
    std::printf("  %-10s parent=%s\n", (*row)[tilde].ToString().c_str(),
                (*row)[fk_any].ToString().c_str());
  }

  auto rebuilt = store::ReconstructDocument(&db, mapping.value());
  if (!rebuilt.ok()) return 1;
  std::printf("\nreconstructed document:\n%s",
              xml::Serialize(rebuilt.value()).c_str());
  return 0;
}
