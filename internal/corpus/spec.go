// Package corpus generates a synthetic stand-in for the JRC-ACQUIS
// Multilingual Parallel Corpus v3.0 used in the paper's evaluation (§5):
// the body of European Union law in the 10 languages the authors
// selected — Czech, Slovak, Danish, Swedish, Spanish, Portuguese,
// Finnish, Estonian, French and English.
//
// The real corpus is not redistributable inside this repository, so each
// language is modelled by a frequency-ranked vocabulary of genuine
// high-frequency and EU-legal-domain words plus a set of real
// inflectional suffixes. Documents are drawn from a Zipf distribution
// over that vocabulary with seeded randomness, producing ISO-8859-1
// text whose 4-gram statistics overlap across related languages the way
// the real corpus does (Spanish↔Portuguese, Czech↔Slovak,
// Finnish↔Estonian, Danish↔Swedish) — the property that drives the
// paper's accuracy results and observed confusions (§5.1–5.2).
package corpus

import (
	"fmt"
	"sort"
	"unicode/utf8"
)

// Spec describes one language's generative model.
type Spec struct {
	// Code is the two-letter language code, e.g. "es".
	Code string
	// Words is the vocabulary in descending frequency rank; the
	// generator applies a Zipf law over this order. Entries are stored
	// as ISO-8859-1 bytes (converted from the UTF-8 literals below at
	// package initialization).
	Words [][]byte
	// Suffixes are inflectional endings occasionally appended to a
	// sampled word, injecting morphological n-grams.
	Suffixes [][]byte
	// SuffixRate is the probability a sampled word receives a suffix.
	SuffixRate float64
	// SharedRate is the probability a sampled token comes from the
	// shared international pool instead of the language's vocabulary.
	// JRC-Acquis is a parallel corpus: institution names, treaty
	// keywords, latinisms and codes appear untranslated in every
	// language version, which is what compresses the match-count margin
	// between related languages and lets Bloom false positives flip
	// borderline documents (the Table 1 accuracy mechanism).
	SharedRate float64
	// Sibling names a closely related language whose wordforms this
	// language shares (cs↔sk, es↔pt, da↔sv, fi↔et); BorrowRate is the
	// probability a token is drawn from the sibling's vocabulary.
	// Czech and Slovak legal text genuinely share a large fraction of
	// identical high-frequency forms; this is what produced the paper's
	// §5.2 observation that "consistently more Spanish documents were
	// misclassified as Portuguese, and Estonian documents as Finnish".
	Sibling    string
	BorrowRate float64

	// cum is the cumulative Zipf weight table over Words, built once at
	// registration and shared (read-only) by all generators.
	cum []float64
}

// sharedWords is the pan-language token pool: terms EU legal text
// carries untranslated across all 22 language versions.
var sharedWords = [][]byte{}

var sharedCum []float64

func init() {
	for _, w := range []string{
		"eu", "ec", "eec", "euratom", "europol", "eurojust", "eurostat",
		"schengen", "erasmus", "interreg", "tempus", "phare", "sapard",
		"ispa", "natura", "galileo", "leader", "urban", "emas", "reach",
		"euro", "ecu", "nace", "taric", "combined", "nomenclature",
		"acquis", "communautaire", "ad", "hoc", "de", "facto", "mutatis",
		"mutandis", "a", "priori", "in", "vitro", "inter", "alia",
		"kyoto", "doha", "basel", "dublin", "helsinki", "lisboa",
		"maastricht", "amsterdam", "nice", "bologna", "cedefop", "cen",
		"cenelec", "etsi", "iso", "oecd", "unesco", "nato", "gatt", "wto",
	} {
		sharedWords = append(sharedWords, latin1(w))
	}
	sharedCum = buildCumulative(sharedWords)
}

// Languages returns the codes of all modelled languages in sorted
// order — the 10 languages of the paper's evaluation.
func Languages() []string {
	codes := make([]string, 0, len(specs))
	for code := range specs {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	return codes
}

// ByCode returns the Spec for a language code.
func ByCode(code string) (*Spec, error) {
	s, ok := specs[code]
	if !ok {
		return nil, fmt.Errorf("corpus: unknown language %q (have %v)", code, Languages())
	}
	return s, nil
}

// specs is populated by init from the UTF-8 word tables below.
var specs = map[string]*Spec{}

// foldNonLatin1 maps letters outside ISO-8859-1 (e.g. Czech č, ř, š)
// to their closest base letter, matching how such corpora were commonly
// transliterated for 8-bit processing. Letters inside ISO-8859-1 are
// preserved so the alphabet converter sees genuine accented bytes.
var foldNonLatin1 = map[rune]byte{
	'č': 'c', 'Č': 'C',
	'ď': 'd', 'Ď': 'D',
	'ě': 'e', 'Ě': 'E',
	'ľ': 'l', 'Ľ': 'L',
	'ĺ': 'l', 'Ĺ': 'L',
	'ň': 'n', 'Ň': 'N',
	'ř': 'r', 'Ř': 'R',
	'š': 's', 'Š': 'S',
	'ť': 't', 'Ť': 'T',
	'ů': 'u', 'Ů': 'U',
	'ž': 'z', 'Ž': 'Z',
	'ő': 'o', 'ű': 'u',
	'ā': 'a', 'ē': 'e', 'ī': 'i', 'ū': 'u',
	'ą': 'a', 'ę': 'e', 'ė': 'e', 'į': 'i',
	'ś': 's', 'ź': 'z', 'ż': 'z', 'ć': 'c', 'ń': 'n', 'ł': 'l',
}

// latin1 converts a UTF-8 literal to ISO-8859-1 bytes, folding letters
// that ISO-8859-1 cannot represent. It panics on anything else: the
// tables below are static data and must be clean.
func latin1(s string) []byte {
	out := make([]byte, 0, len(s))
	for _, r := range s {
		switch {
		case r == utf8.RuneError:
			panic(fmt.Sprintf("corpus: invalid UTF-8 in spec literal %q", s))
		case r < 0x100:
			out = append(out, byte(r))
		default:
			b, ok := foldNonLatin1[r]
			if !ok {
				panic(fmt.Sprintf("corpus: rune %q in %q has no ISO-8859-1 folding", r, s))
			}
			out = append(out, b)
		}
	}
	return out
}

// sharedRate is the fraction of tokens drawn from the shared pool. In
// JRC-Acquis roughly one token in six or seven is a name, code, number
// or untranslated term common to all language versions.
const sharedRate = 0.15

func register(code string, suffixRate float64, suffixes []string, words []string) {
	s := &Spec{Code: code, SuffixRate: suffixRate, SharedRate: sharedRate}
	s.Words = make([][]byte, len(words))
	for i, w := range words {
		s.Words[i] = latin1(w)
	}
	s.Suffixes = make([][]byte, len(suffixes))
	for i, w := range suffixes {
		s.Suffixes[i] = latin1(w)
	}
	s.cum = buildCumulative(s.Words)
	specs[code] = s
}

// wireSiblings connects the related-language pairs after all specs are
// registered. Rates reflect real lexical closeness: Czech/Slovak are
// mutually intelligible, Spanish/Portuguese and Danish/Swedish very
// close, Finnish/Estonian related but farther apart.
func wireSiblings() {
	pair := func(a, b string, rate float64) {
		specs[a].Sibling, specs[a].BorrowRate = b, rate
		specs[b].Sibling, specs[b].BorrowRate = a, rate
	}
	pair("cs", "sk", 0.17)
	pair("es", "pt", 0.14)
	pair("da", "sv", 0.11)
	pair("fi", "et", 0.08)
}

func init() {
	register("en", 0.05,
		[]string{"s", "ed", "ing", "ly", "tion", "ment"},
		[]string{
			"the", "of", "to", "and", "in", "a", "is", "that", "for", "be",
			"by", "shall", "this", "with", "regulation", "member", "states", "on", "as", "not",
			"or", "it", "are", "from", "which", "commission", "european", "council", "directive", "article",
			"such", "has", "have", "an", "may", "should", "their", "any", "its", "at",
			"decision", "measures", "provisions", "market", "products", "within", "union", "treaty", "application", "authorities",
			"committee", "procedure", "community", "accordance", "national", "where", "between", "conditions", "information", "other",
			"than", "under", "all", "been", "will", "these", "when", "also", "adopted", "following",
			"period", "referred", "paragraph", "annex", "concerning", "laid", "down", "rules", "necessary", "appropriate",
			"particular", "account", "taking", "having", "regard", "whereas", "thereof", "amended", "agreement", "countries",
			"third", "state", "law", "case", "court", "justice", "official", "journal", "force", "entry",
			"date", "applicable", "pursuant", "established", "ensure", "order", "certain", "specific", "relevant", "respect",
			"request", "competent", "authority", "financial", "economic", "social", "development", "protection", "environment", "health",
			"safety", "standards", "requirements", "common", "policy", "agricultural", "fisheries", "transport", "energy", "research",
			"technology", "internal", "trade", "customs", "duties", "import", "export", "quota", "aid", "support",
			"programme", "budget", "expenditure", "revenue", "value", "added", "tax", "goods", "services", "persons",
		})

	register("es", 0.07,
		[]string{"s", "es", "ción", "mente", "ado", "ada", "idad"},
		[]string{
			"de", "la", "que", "el", "en", "y", "a", "los", "del", "se",
			"las", "por", "un", "para", "con", "no", "una", "su", "al", "lo",
			"como", "más", "pero", "sus", "le", "ya", "o", "este", "porque", "esta",
			"entre", "cuando", "muy", "sin", "sobre", "también", "hasta", "hay", "donde", "quien",
			"desde", "todo", "nos", "durante", "todos", "uno", "les", "ni", "contra", "otros",
			"ese", "eso", "ante", "ellos", "esto", "antes", "algunos", "unos", "otro", "otras",
			"otra", "tanto", "esa", "estos", "mucho", "cual", "poco", "ella", "estar", "estas",
			"reglamento", "comisión", "europea", "consejo", "directiva", "artículo", "estados", "miembros", "disposiciones", "aplicación",
			"mercado", "productos", "medidas", "procedimiento", "comunidad", "comité", "decisión", "acuerdo", "tratado", "derecho",
			"información", "condiciones", "autoridades", "nacional", "conforme", "presente", "deberá", "deberán", "así", "según",
			"caso", "fecha", "vigor", "diario", "oficial", "apartado", "anexo", "normas", "necesarias", "particular",
			"respecto", "países", "terceros", "protección", "medio", "ambiente", "salud", "seguridad", "política", "común",
			"agrícola", "pesca", "transporte", "energía", "investigación", "desarrollo", "económico", "social", "financiero", "presupuesto",
			"impuesto", "valor", "añadido", "mercancías", "servicios", "personas", "será", "serán", "haya", "sido",
			"dicho", "dicha", "deben", "debe", "puede", "pueden", "mediante", "través", "parte", "partes",
		})

	register("pt", 0.07,
		[]string{"s", "es", "ção", "mente", "ado", "ada", "idade"},
		[]string{
			"de", "a", "o", "que", "e", "do", "da", "em", "um", "para",
			"é", "com", "não", "uma", "os", "no", "se", "na", "por", "mais",
			"as", "dos", "como", "mas", "foi", "ao", "das", "tem", "à", "seu",
			"sua", "ou", "ser", "quando", "muito", "há", "nos", "já", "está", "também",
			"só", "pelo", "pela", "até", "isso", "ela", "entre", "era", "depois", "sem",
			"mesmo", "aos", "ter", "seus", "quem", "nas", "esse", "eles", "essa", "num",
			"nem", "suas", "meu", "às", "minha", "têm", "numa", "pelos", "elas", "seja",
			"regulamento", "comissão", "europeia", "conselho", "directiva", "artigo", "estados", "membros", "disposições", "aplicação",
			"mercado", "produtos", "medidas", "procedimento", "comunidade", "comité", "decisão", "acordo", "tratado", "direito",
			"informação", "condições", "autoridades", "nacional", "presente", "deverá", "deverão", "assim", "segundo", "termos",
			"caso", "data", "vigor", "jornal", "oficial", "número", "anexo", "normas", "necessárias", "particular",
			"respeito", "países", "terceiros", "protecção", "meio", "ambiente", "saúde", "segurança", "política", "comum",
			"agrícola", "pesca", "transporte", "energia", "investigação", "desenvolvimento", "económico", "social", "financeiro", "orçamento",
			"imposto", "valor", "acrescentado", "mercadorias", "serviços", "pessoas", "será", "serão", "tenha", "sido",
			"dito", "dita", "devem", "deve", "pode", "podem", "mediante", "através", "parte", "partes",
		})

	register("fr", 0.06,
		[]string{"s", "es", "tion", "ment", "és", "ée"},
		[]string{
			"de", "la", "le", "et", "les", "des", "en", "un", "du", "une",
			"que", "est", "pour", "qui", "dans", "a", "par", "plus", "pas", "au",
			"sur", "ne", "se", "ce", "il", "sont", "aux", "avec", "son", "cette",
			"ou", "être", "comme", "mais", "fait", "été", "aussi", "leur", "bien", "ces",
			"peut", "tout", "nous", "sa", "dont", "elle", "deux", "si", "entre", "doit",
			"après", "sans", "autres", "même", "selon", "notamment", "ainsi", "encore", "toute", "leurs",
			"doivent", "lorsque", "celle", "celui", "toutes", "tous", "ceux", "avant", "afin", "lors",
			"règlement", "commission", "européenne", "conseil", "directive", "article", "états", "membres", "dispositions", "application",
			"marché", "produits", "mesures", "procédure", "communauté", "comité", "décision", "accord", "traité", "droit",
			"information", "conditions", "autorités", "national", "présent", "présente", "conformément", "cas", "date", "vigueur",
			"journal", "officiel", "paragraphe", "annexe", "règles", "nécessaires", "particulier", "égard", "pays", "tiers",
			"protection", "environnement", "santé", "sécurité", "politique", "commune", "agricole", "pêche", "transport", "énergie",
			"recherche", "développement", "économique", "social", "financier", "budget", "impôt", "valeur", "ajoutée", "marchandises",
			"services", "personnes", "sera", "seront", "ait", "visé", "visée", "prévu", "prévue", "vertu",
			"titre", "chapitre", "section", "point", "alinéa", "modifié", "modifiée", "relatif", "relative", "concernant",
		})

	register("cs", 0.12,
		[]string{"ch", "mi", "ou", "ého", "ých", "um", "ami", "ech", "em", "y"},
		[]string{
			"a", "se", "na", "je", "v", "ze", "s", "z", "do", "o",
			"i", "to", "jako", "za", "by", "podle", "pro", "jsou", "ale", "které",
			"která", "který", "od", "pri", "po", "být", "nebo", "jeho", "az", "tak",
			"také", "muze", "musí", "pokud", "vsak", "jejich", "mezi", "tento", "tato", "toto",
			"této", "techto", "byla", "bylo", "byly", "jiz", "pouze", "dále", "tím", "tedy",
			"clenské", "státy", "komise", "evropské", "rady", "narízení", "smernice", "clánek", "odstavec", "ustanovení",
			"pouzití", "trh", "výrobky", "opatrení", "postup", "spolecenství", "výbor", "rozhodnutí", "dohoda", "smlouva",
			"právo", "informace", "podmínky", "orgány", "vnitrostátní", "uvedené", "dni", "dnem", "platnost", "vstoupí",
			"úrední", "vestník", "príloha", "pravidla", "nezbytná", "zejména", "ohledem", "zeme", "tretí", "ochrana",
			"zivotní", "prostredí", "zdraví", "bezpecnost", "politika", "spolecná", "zemedelství", "rybolov", "doprava", "energie",
			"výzkum", "rozvoj", "hospodárský", "sociální", "financní", "rozpocet", "dan", "hodnota", "pridaná", "zbozí",
			"sluzby", "osoby", "bude", "budou", "mely", "melo", "musejí", "mohou", "prostrednictvím", "cástka",
			"clenských", "státu", "práva", "povinnosti", "souladu", "stanovené", "stanoví", "príslusné", "príslusný", "orgán",
			"predpisy", "pozadavky", "kontrola", "rízení", "úcely", "výjimky", "lhuta", "lhuty", "platné", "znení",
		})

	register("sk", 0.12,
		[]string{"ch", "mi", "ou", "ého", "ých", "om", "ami", "och", "om", "y"},
		[]string{
			"a", "sa", "na", "je", "v", "ze", "s", "z", "do", "o",
			"aj", "to", "ako", "za", "by", "podla", "pre", "sú", "ale", "ktoré",
			"ktorá", "ktorý", "od", "pri", "po", "byt", "alebo", "jeho", "az", "tak",
			"tiez", "môze", "musí", "ak", "vsak", "ich", "medzi", "tento", "táto", "toto",
			"tejto", "týchto", "bola", "bolo", "boli", "uz", "iba", "dalej", "tým", "teda",
			"clenské", "státy", "komisia", "európskej", "rady", "nariadenie", "smernica", "clánok", "odsek", "ustanovenia",
			"pouzitie", "trh", "výrobky", "opatrenia", "postup", "spolocenstvo", "výbor", "rozhodnutie", "dohoda", "zmluva",
			"právo", "informácie", "podmienky", "orgány", "vnútrostátne", "uvedené", "dna", "dnom", "platnost", "nadobúda",
			"úradný", "vestník", "príloha", "pravidlá", "potrebné", "najmä", "ohladom", "krajiny", "tretie", "ochrana",
			"zivotné", "prostredie", "zdravie", "bezpecnost", "politika", "spolocná", "polnohospodárstvo", "rybolov", "doprava", "energia",
			"výskum", "rozvoj", "hospodársky", "sociálne", "financný", "rozpocet", "dan", "hodnota", "pridaná", "tovar",
			"sluzby", "osoby", "bude", "budú", "mali", "malo", "musia", "môzu", "prostredníctvom", "suma",
			"clenských", "státov", "práva", "povinnosti", "súlade", "stanovené", "stanovuje", "príslusné", "príslusný", "orgán",
			"predpisy", "poziadavky", "kontrola", "konanie", "úcely", "výnimky", "lehota", "lehoty", "platné", "znenie",
		})

	register("da", 0.08,
		[]string{"en", "et", "er", "erne", "ene", "s", "ede", "ning"},
		[]string{
			"og", "i", "at", "det", "en", "den", "til", "er", "som", "på",
			"de", "med", "af", "for", "ikke", "der", "var", "sig", "men", "et",
			"har", "om", "vi", "havde", "nu", "over", "da", "fra", "du", "ud",
			"sin", "dem", "os", "op", "man", "hvor", "eller", "hvad", "skal", "selv",
			"her", "alle", "vil", "blev", "kunne", "ind", "når", "være", "dog", "noget",
			"ville", "deres", "efter", "ned", "skulle", "denne", "end", "dette", "også", "under",
			"have", "anden", "mine", "alt", "meget", "disse", "hvis", "din", "nogle", "hos",
			"forordning", "kommissionen", "europæiske", "rådet", "direktiv", "artikel", "medlemsstater", "bestemmelser", "anvendelse", "marked",
			"produkter", "foranstaltninger", "procedure", "fællesskabet", "udvalg", "afgørelse", "aftale", "traktat", "ret", "oplysninger",
			"betingelser", "myndigheder", "nationale", "mellem", "såfremt", "nævnte", "dag", "kraft", "træder", "tidende",
			"bilag", "regler", "nødvendige", "navnlig", "hensyn", "lande", "tredjelande", "beskyttelse", "miljø", "sundhed",
			"sikkerhed", "politik", "fælles", "landbrug", "fiskeri", "transport", "energi", "forskning", "udvikling", "økonomisk",
			"sociale", "finansielle", "budget", "afgift", "værdi", "merværdi", "varer", "tjenesteydelser", "personer", "bliver",
			"været", "blive", "mange", "andre", "første", "senest", "inden", "gennem", "således", "øvrige",
			"stk", "nr", "litra", "artikler", "vedtaget", "ændret", "fastsat", "fastsættes", "gælder", "gældende",
		})

	register("sv", 0.08,
		[]string{"en", "et", "er", "erna", "arna", "s", "ade", "ning"},
		[]string{
			"och", "i", "att", "det", "som", "en", "på", "är", "av", "för",
			"med", "till", "den", "har", "de", "inte", "om", "ett", "han", "men",
			"var", "jag", "sig", "från", "vi", "så", "kan", "när", "man", "skulle",
			"nu", "över", "vid", "kunde", "också", "efter", "eller", "sin", "hade", "hur",
			"mot", "där", "alla", "andra", "mycket", "här", "då", "sedan", "ingen", "vara",
			"blir", "under", "ut", "utan", "varit", "hela", "detta", "denna", "dessa", "mellan",
			"bara", "någon", "bli", "upp", "även", "vad", "få", "två", "vill", "finns",
			"förordning", "kommissionen", "europeiska", "rådet", "direktiv", "artikel", "medlemsstater", "bestämmelser", "tillämpning", "marknad",
			"produkter", "åtgärder", "förfarande", "gemenskapen", "kommitté", "beslut", "avtal", "fördraget", "rätt", "uppgifter",
			"villkor", "myndigheter", "nationella", "nämnda", "dag", "kraft", "träder", "tidning", "bilaga", "regler",
			"nödvändiga", "särskilt", "hänsyn", "länder", "tredjeländer", "skydd", "miljö", "hälsa", "säkerhet", "politik",
			"gemensamma", "jordbruk", "fiske", "transport", "energi", "forskning", "utveckling", "ekonomisk", "sociala", "finansiella",
			"budget", "skatt", "värde", "mervärde", "varor", "tjänster", "personer", "enligt", "genom", "ska",
			"skall", "får", "bör", "måste", "punkt", "punkten", "stycket", "antagits", "ändrad", "fastställs",
			"gäller", "gällande", "följande", "första", "fjärde", "tredje", "senast", "inom", "utanför", "övriga",
		})

	register("fi", 0.14,
		[]string{"ssa", "ssä", "sta", "stä", "lla", "llä", "lle", "ksi", "n", "t", "en", "in", "iin", "ista", "issa"},
		[]string{
			"ja", "on", "ei", "että", "se", "hän", "oli", "joka", "mutta", "niin",
			"kuin", "myös", "hänen", "sen", "olla", "ovat", "jos", "kun", "sekä", "vain",
			"mukaan", "tai", "ole", "tämä", "sitä", "voi", "kaikki", "jo", "näin", "kanssa",
			"siitä", "ollut", "nyt", "tässä", "sille", "jonka", "vielä", "mitä", "kuitenkin", "voidaan",
			"olisi", "tulisi", "niiden", "näitä", "tämän", "välillä", "näiden", "jotka", "jossa", "josta",
			"asetus", "komissio", "euroopan", "neuvosto", "direktiivi", "artikla", "jäsenvaltiot", "säännökset", "soveltaminen", "markkinat",
			"tuotteet", "toimenpiteet", "menettely", "yhteisö", "komitea", "päätös", "sopimus", "perustamissopimus", "oikeus", "tiedot",
			"edellytykset", "viranomaiset", "kansallinen", "mainittu", "päivä", "voimaan", "tulee", "virallinen", "lehti", "liite",
			"säännöt", "tarpeelliset", "erityisesti", "huomioon", "ottaen", "maat", "kolmannet", "suojelu", "ympäristö", "terveys",
			"turvallisuus", "politiikka", "yhteinen", "maatalous", "kalastus", "liikenne", "energia", "tutkimus", "kehitys", "taloudellinen",
			"sosiaalinen", "rahoitus", "talousarvio", "vero", "arvo", "lisätty", "tavarat", "palvelut", "henkilöt", "jäsenvaltioiden",
			"jäsenvaltioissa", "annettu", "annetun", "muutettu", "vahvistetaan", "sovelletaan", "koskee", "koskevat", "osalta", "yhteisön",
			"toimet", "ohjelma", "kauden", "aikana", "jälkeen", "ennen", "mennessä", "alkaen", "lukien", "kohta",
			"kohdan", "artiklan", "liitteessä", "määräykset", "vaatimukset", "valvonta", "hallinto", "tarkoitus", "tavoite", "tavoitteet",
		})

	register("et", 0.13,
		[]string{"s", "st", "le", "lt", "ga", "ks", "d", "te", "de", "sse", "ni"},
		[]string{
			"ja", "on", "ei", "et", "ta", "see", "oli", "mis", "aga", "nii",
			"kui", "ka", "tema", "selle", "olla", "nad", "kas", "siis", "ning", "ainult",
			"järgi", "või", "pole", "seda", "võib", "kõik", "juba", "nüüd", "koos", "sellest",
			"olnud", "praegu", "siin", "kelle", "veel", "mida", "siiski", "võidakse", "peaks", "tuleks",
			"nende", "vahel", "oma", "välja", "üle", "pärast", "enne", "kuni", "alates", "kohta",
			"määrus", "komisjon", "euroopa", "nõukogu", "direktiiv", "artikkel", "liikmesriigid", "sätted", "kohaldamine", "turg",
			"tooted", "meetmed", "menetlus", "ühendus", "komitee", "otsus", "leping", "asutamisleping", "õigus", "andmed",
			"tingimused", "asutused", "riiklik", "nimetatud", "päev", "jõustub", "ametlik", "teataja", "lisa", "eeskirjad",
			"vajalikud", "eriti", "arvesse", "võttes", "riigid", "kolmandad", "kaitse", "keskkond", "tervis", "ohutus",
			"poliitika", "ühine", "põllumajandus", "kalandus", "transport", "energia", "teadusuuringud", "areng", "majanduslik", "sotsiaalne",
			"rahandus", "eelarve", "maks", "väärtus", "lisandunud", "kaubad", "teenused", "isikud", "liikmesriikide", "liikmesriikides",
			"vastu", "võetud", "muudetud", "kehtestatakse", "kohaldatakse", "käsitleb", "käsitlevad", "suhtes", "ühenduse", "tegevus",
			"programm", "ajavahemik", "jooksul", "tähtaeg", "punkt", "punkti", "artikli", "lisas", "nõuded", "kontroll",
			"haldus", "eesmärk", "eesmärgid", "kord", "korras", "alusel", "sätestatud", "ette", "nähtud", "asjaomane",
		})

	wireSiblings()
}
